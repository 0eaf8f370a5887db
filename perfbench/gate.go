package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"tcpburst/internal/core"
)

// defaultSeed is the workload seed whose result digests pins.json holds.
const defaultSeed = 1

//go:embed pins.json
var pinsJSON []byte

// loadPins returns the pinned digests of a workload's main pass, one per
// operation in configs order.
func loadPins(workload string) ([]string, error) {
	var all map[string][]string
	if err := json.Unmarshal(pinsJSON, &all); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	pins, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("pins.json has no digests for %s", workload)
	}
	return pins, nil
}

// digest is the hex SHA-256 of a result's summary JSON.
func digest(r *core.Result) (string, error) {
	b, err := r.MarshalSummaryJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// conservation reports the first packet-accounting identity r breaks.
// Per-flow counts exist only on packet results computed in this process:
// cached results and fluid results carry none.
func conservation(r *core.Result, perFlow bool) error {
	if perFlow {
		var sum uint64
		for _, f := range r.Flows {
			sum += f.Delivered
		}
		if sum != r.Delivered {
			return fmt.Errorf("sum of per-flow delivered %d != delivered %d", sum, r.Delivered)
		}
	}
	switch {
	case r.Delivered > r.Generated:
		return fmt.Errorf("delivered %d > generated %d", r.Delivered, r.Generated)
	case r.Delivered > r.DataSent:
		return fmt.Errorf("delivered %d > data sent %d", r.Delivered, r.DataSent)
	case r.BottleneckDrops > r.ForwardDrops:
		return fmt.Errorf("bottleneck drops %d > forward drops %d", r.BottleneckDrops, r.ForwardDrops)
	case r.ForwardDrops > r.DataSent:
		return fmt.Errorf("forward drops %d > data sent %d", r.ForwardDrops, r.DataSent)
	}
	return nil
}

// gate counts operations and failures. An operation is one simulation,
// one fluid solve, or one job served from the result cache. It fails when
// its pass returns an error, when a conservation identity breaks, or when
// its summary digest differs from the pinned digest (main passes at the
// default seed) or from the first repetition of the same pass.
type gate struct {
	attempted, failed int
	// pins holds the main pass's pinned digests; nil disables the check.
	pins []string
	// first maps a pass label to the operations of its first repetition.
	first map[string][]opCheck
	// errs keeps the first few failure descriptions for stderr.
	errs []string
}

func newGate(pins []string) *gate {
	return &gate{pins: pins, first: make(map[string][]opCheck)}
}

// ok reports whether every operation so far succeeded.
func (g *gate) ok() bool { return g.failed == 0 }

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.errs) < 8 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// opCheck is one operation's outcome: its summary digest, or why it
// failed.
type opCheck struct {
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// checkOps checks the results of a pass of n operations: the pass error,
// the conservation identities and the summary digest of each. fresh marks
// results computed in this process rather than read from the cache.
func checkOps(results []*core.Result, err error, n int, fresh bool) []opCheck {
	ops := make([]opCheck, n)
	if err != nil || len(results) != n {
		for i := range ops {
			ops[i].Err = fmt.Sprintf("pass failed: %v (%d of %d results)", err, len(results), n)
		}
		return ops
	}
	for i, r := range results {
		if r == nil {
			ops[i].Err = "no result"
			continue
		}
		if cerr := conservation(r, fresh && r.Fluid == nil); cerr != nil {
			ops[i].Err = cerr.Error()
			continue
		}
		d, derr := digest(r)
		if derr != nil {
			ops[i].Err = "summary: " + derr.Error()
			continue
		}
		ops[i].Digest = d
	}
	return ops
}

// record counts one checked pass under label. Passes labelled "main" are
// compared against the pins; every label is compared against its own
// first repetition.
func (g *gate) record(label string, ops []opCheck) {
	g.attempted += len(ops)
	for i, op := range ops {
		switch prev, seen := g.first[label]; {
		case op.Err != "":
			g.fail("%s: op %d: %s", label, i, op.Err)
		case label == "main" && g.pins != nil && (i >= len(g.pins) || g.pins[i] != op.Digest):
			g.fail("%s: op %d: digest %.12s differs from the pinned digest", label, i, op.Digest)
		case seen && (i >= len(prev) || prev[i].Digest != op.Digest):
			g.fail("%s: op %d: digest %.12s differs from the first repetition's", label, i, op.Digest)
		}
	}
	if _, seen := g.first[label]; !seen {
		g.first[label] = ops
	}
}

// pass checks and records one pass of n operations run in this process.
func (g *gate) pass(label string, n int, results []*core.Result, err error, fresh bool) {
	g.record(label, checkOps(results, err, n, fresh))
}

// pinAll runs every workload's main pass at the default seed and writes
// the digests to path in the pins.json format.
func pinAll(ctx context.Context, path string) error {
	all := make(map[string][]string, len(workloads))
	for _, w := range workloads {
		res, err := w.pass(ctx, w.base(defaultSeed), passOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for _, r := range res {
			d, err := digest(r)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			all[w.name] = append(all[w.name], d)
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
