package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// The golden-digest table is the behavior-preservation contract for
// hot-path refactors: every paper cell (plus the SACK and DRR extension
// cells, whose data structures are the trickiest) runs at three client
// counts, and the SHA-256 of its full summary JSON must match the digest
// captured before the refactor. Regenerate deliberately with
//
//	go test ./internal/core -run TestGoldenSummaries -update-golden
//
// and justify the diff in review: a changed digest means a changed
// simulation, not a faster one.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_summaries.json from the current implementation")

const goldenPath = "testdata/golden_summaries.json"

// goldenDuration keeps the guard fast; determinism bugs that need longer
// horizons are the equivalence matrix's job.
const goldenDuration = 2 * time.Second

// goldenCase is one named deterministic run.
type goldenCase struct {
	name string
	run  func() ([]byte, error)
}

// goldenCases builds the digest matrix. shards > 1 runs every packet cell
// partitioned over that many schedulers — the digests must still match the
// serial table entry for entry, which is the tentpole determinism claim:
// sharding changes wall-clock time and nothing else. The parking-lot case
// runs serially and at 2 shards (its one inter-gateway cut caps the chain
// shard plan at 2). Case names must be unique: computeGoldenDigests keys
// its results by name, so a collision would silently pin only one run.
func goldenCases(t *testing.T, shards int) []goldenCase {
	cells := append(PaperCells(),
		Cell{Protocol: Sack, Gateway: FIFO},
		Cell{Protocol: Reno, Gateway: DRR},
		// Registry-built disciplines join the matrix as spec cells: the AQM
		// control laws (drop timing, ECN marks, admission sheds) are exactly
		// the kind of behavior a hot-path refactor can bend without failing
		// any unit test. red?ecn=true keeps the paper's "red" summary label
		// and red* fields while running ECN marking.
		Cell{Protocol: Reno, Gateway: "codel"},
		Cell{Protocol: Reno, Gateway: "pie"},
		Cell{Protocol: Reno, Gateway: "red?ecn=true"},
		Cell{Protocol: Reno, Gateway: "tokenbucket?burst=25&rate=2000"},
	)
	var cases []goldenCase
	seen := make(map[string]bool)
	for _, cell := range cells {
		for _, n := range []int{20, 39, 60} {
			cell, n := cell, n
			name := fmt.Sprintf("%s/n%d", cell, n)
			if seen[name] {
				t.Fatalf("duplicate golden case name %q", name)
			}
			seen[name] = true
			cases = append(cases, goldenCase{
				name: name,
				run: func() ([]byte, error) {
					cfg := DefaultConfig(n, cell.Protocol, cell.Gateway)
					cfg.Duration = goldenDuration
					cfg.Shards = shards
					res, err := Run(cfg)
					if err != nil {
						return nil, err
					}
					// The schema stamp is encoding metadata, not behavior;
					// exclude it so the digest survives version bumps.
					s := res.Summary()
					s.SchemaVersion = 0
					return json.Marshal(s)
				},
			})
		}
	}
	if shards > 2 {
		return cases
	}
	chainShards := shards
	if chainShards == 1 {
		chainShards = 0
	}
	cases = append(cases, goldenCase{
		name: "parkinglot",
		run: func() ([]byte, error) {
			res, err := RunParkingLot(ChainConfig{
				LongClients: 4, Hop1Clients: 3, Hop2Clients: 3,
				Protocol: Reno, Gateway: FIFO, Duration: goldenDuration,
				Shards: chainShards,
			})
			if err != nil {
				return nil, err
			}
			// The config echo and schema stamp are dropped so the digest
			// tracks behavior, not the shape of the encoding itself: a
			// zeroed ChainConfig would still encode every Config field.
			raw, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				return nil, err
			}
			delete(fields, "Config")
			delete(fields, "schemaVersion")
			return json.Marshal(fields)
		},
	})
	return cases
}

// computeGoldenDigests runs every case on a worker pool and returns
// name -> sha256(summary JSON).
func computeGoldenDigests(t *testing.T, cases []goldenCase) map[string]string {
	t.Helper()
	digests := make(map[string]string, len(cases))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, c := range cases {
		c := c
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			raw, err := c.run()
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			sum := sha256.Sum256(raw)
			mu.Lock()
			digests[c.name] = hex.EncodeToString(sum[:])
			mu.Unlock()
		}()
	}
	wg.Wait()
	return digests
}

func TestGoldenSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is slow")
	}

	if *updateGolden {
		digests := computeGoldenDigests(t, goldenCases(t, 1))
		if t.Failed() {
			t.Fatal("not writing golden file: some cases failed")
		}
		names := make([]string, 0, len(digests))
		for name := range digests {
			names = append(names, name)
		}
		sort.Strings(names)
		ordered := make(map[string]string, len(digests)) // json sorts keys
		for _, name := range names {
			ordered[name] = digests[name]
		}
		raw, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden table: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write golden table: %v", err)
		}
		t.Logf("wrote %d digests to %s", len(digests), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden table (regenerate with -update-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}

	got := computeGoldenDigests(t, goldenCases(t, 1))
	if len(got) != len(want) {
		t.Errorf("golden table has %d entries, current run produced %d (regenerate with -update-golden)",
			len(want), len(got))
	}
	for name, wantDigest := range want {
		gotDigest, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from current run", name)
			continue
		}
		if gotDigest != wantDigest {
			t.Errorf("%s: summary digest changed\n  golden:  %s\n  current: %s\nbehavior is no longer bit-for-bit identical to the captured baseline",
				name, wantDigest, gotDigest)
		}
	}
}

// TestGoldenSummariesSharded replays every packet cell of the golden
// matrix partitioned over 2 and 4 shards and demands the serial digests,
// entry for entry. This is the sharded extension of the golden table: the
// table gains no new rows because the whole point is that a sharded run
// has nothing new to pin — any divergence from the serial digest is a
// lost or reordered cross-shard event, not a legitimate new baseline. Do
// NOT regenerate the table to make this test pass; fix the barrier.
func TestGoldenSummariesSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is slow")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden table (regenerate with -update-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			t.Parallel()
			got := computeGoldenDigests(t, goldenCases(t, shards))
			for name, gotDigest := range got {
				wantDigest, ok := want[name]
				if !ok {
					t.Errorf("%s: not in the golden table", name)
					continue
				}
				if gotDigest != wantDigest {
					t.Errorf("%s: sharded (K=%d) digest diverges from serial\n  serial:  %s\n  sharded: %s\na cross-shard event was lost, duplicated, or reordered",
						name, shards, wantDigest, gotDigest)
				}
			}
		})
	}
}
