package traffic

import (
	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/transport"
)

// Lazy arrivals.
//
// A source feeding a window-limited transport spends most of an overload
// run producing arrivals that land in a send buffer which is already
// backlogged: each such arrival increments a counter and nothing else. The
// driver below stops scheduling those events. After a source event leaves
// its destination backlogged the source goes dormant: it keeps the key of
// its next event but files nothing. The transport pulls instead — before
// it acts on its buffer it calls CatchUp, which executes, in one batch,
// every source event whose (time, ordinal) key precedes the scheduler's
// CurrentKey; when the buffer drains it calls Drained, which files the
// pending event at its exact key. Each caught-up event is credited to the
// scheduler's fired count, so the executed-event count is the per-event
// one. DESIGN.md §12 ("Lazy arrivals") has the equivalence argument.
//
// Catch-up needs the ordinal each event would have held, so a lazy source
// draws its ordinals from a private lane: the k-th event's ordinal is the
// lane's k-th, whatever else the simulation scheduled meanwhile.

// process is the arrival law of a source — everything but scheduling.
type process interface {
	// first returns the delay from Start to the first source event.
	first() sim.Duration
	// step executes the source event at instant now: it reports whether
	// the event generates a packet and returns the delay to the next one.
	step(now sim.Time) (emit bool, next sim.Duration)
}

// driver is the scheduling half shared by every source: eager per-event
// filing, dormancy behind a backlog, catch-up, and exact re-arm.
type driver struct {
	sched   *sim.Scheduler
	lane    *sim.Lane // nil: the scheduler's default lane, always eager
	dst     transport.Source
	backlog transport.Backlogged // non-nil when the source may go dormant
	counter telemetry.Counter
	proc    process
	fireFn  func() // prebound d.fire; a method value would allocate per schedule

	running bool
	dormant bool
	pending sim.Handle
	// at and ord are the key of the next source event; ord is drawn only
	// on a lane.
	at  sim.Time
	ord uint64

	generated uint64
	elided    uint64
}

// init binds the driver. A lazy driver needs a lane and goes dormant only
// behind a destination that reports its backlog; any other destination
// keeps it eager.
func (d *driver) init(proc process, sched *sim.Scheduler, lane *sim.Lane, lazy bool, dst transport.Source, counter telemetry.Counter) {
	d.proc, d.sched, d.lane, d.dst, d.counter = proc, sched, lane, dst, counter
	d.fireFn = d.fire
	if b, ok := dst.(transport.Backlogged); ok && lazy && lane != nil {
		d.backlog = b
		b.SetFeeder(d)
	}
}

// Start schedules the first source event.
func (d *driver) Start() {
	if d.running {
		return
	}
	d.running = true
	d.at = d.sched.Now().Add(d.proc.first())
	d.arm()
}

// Stop catches up to the scheduler's current key — after a Run, every
// event at or before its horizon — and cancels any pending source event.
func (d *driver) Stop() {
	d.CatchUp()
	d.running = false
	d.dormant = false
	d.sched.Cancel(d.pending)
	d.pending = sim.Handle{}
}

// Generated returns the number of packets produced so far.
func (d *driver) Generated() uint64 { return d.generated }

// Elided returns the number of source events executed by catch-up
// instead of by the scheduler.
func (d *driver) Elided() uint64 { return d.elided }

// advance executes the source event at d.at and moves d.at to the next.
func (d *driver) advance() {
	emit, next := d.proc.step(d.at)
	if emit {
		d.generated++
		d.counter.Inc()
		d.dst.Submit()
	}
	d.at = d.at.Add(next)
}

func (d *driver) fire() {
	if !d.running {
		return
	}
	d.advance()
	d.arm()
}

// arm files the event at d.at — or, when the destination is backlogged,
// draws its ordinal and goes dormant instead.
func (d *driver) arm() {
	if d.lane == nil {
		d.pending = d.sched.At(d.at, d.fireFn)
		return
	}
	d.ord = d.lane.Take()
	if d.backlog != nil && d.backlog.Backlog() > 0 {
		d.dormant = true
		return
	}
	d.pending = d.sched.AtOrdinal(d.lane, d.at, d.ord, d.fireFn)
}

// CatchUp executes, in key order, every pending source event whose key
// precedes the scheduler's CurrentKey. Each would have fired before the
// current event under per-event execution, and each found the
// destination in the state it is in now — only the destination's
// Receive/timeout paths change it, and they call CatchUp first — so each
// only grows the backlog.
func (d *driver) CatchUp() {
	if !d.dormant {
		return
	}
	t, ord := d.sched.CurrentKey()
	for d.at < t || (d.at == t && d.ord < ord) {
		d.sched.CreditFired()
		d.elided++
		d.advance()
		d.ord = d.lane.Take()
	}
}

// Drained re-arms a dormant source at the exact key of its pending event.
// The destination calls it after a CatchUp in the same event, so that
// key lies after the current one.
func (d *driver) Drained() {
	if !d.dormant {
		return
	}
	d.dormant = false
	d.pending = d.sched.AtOrdinal(d.lane, d.at, d.ord, d.fireFn)
}
