// Package transport defines the interfaces shared by all transport-layer
// agents and implements UDP, the unmodulated baseline protocol: packets
// submitted by the application go straight to the wire with no flow or
// congestion control.
package transport

import (
	"tcpburst/internal/packet"
)

// Wire is anything that can carry a packet toward its destination; in
// practice it is the host's egress *link.Link.
type Wire interface {
	Send(p *packet.Packet)
}

// Source is the application-facing side of a sending transport agent. The
// traffic generator calls Submit once per application packet; the transport
// decides when (or whether) the packet actually reaches the wire.
type Source interface {
	// Submit hands one application packet to the transport.
	Submit()
}

// Agent consumes packets delivered to an endpoint by the network.
type Agent interface {
	Receive(p *packet.Packet)
}

// Backlogged is a Source that can hold submitted packets it has not yet
// transmitted — a window-limited sender. While its backlog is nonempty an
// application arrival changes nothing but the backlog, so the source
// feeding it may stop scheduling arrivals and catch up on demand.
type Backlogged interface {
	Source
	// Backlog returns packets submitted but not yet transmitted.
	Backlog() int64
	// SetFeeder attaches the source that feeds this transport. From then
	// on the transport calls f.CatchUp before it acts on its send buffer
	// and f.Drained whenever doing so leaves the buffer empty.
	SetFeeder(f Feeder)
}

// Feeder is an application source that may go dormant while its
// Backlogged destination holds a backlog.
type Feeder interface {
	// CatchUp submits every arrival per-event execution would already
	// have delivered by the event executing now.
	CatchUp()
	// Drained reports that the backlog is empty: a dormant feeder files
	// its next arrival again.
	Drained()
}
