package sketch

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/gss"
	"repro/internal/stream"
)

// Cross-backend conformance battery. Every backend — current and
// future — runs the same insert/query/HeavyEdges/Stats/
// Snapshot-Restore/swap script, and every observable is diffed against
// a bare gss.GSS baseline. A backend that drifts (drops an item,
// mis-merges a heavy edge, loses state across snapshot or swap) fails
// here by name, not in some caller three layers up. New backends get
// coverage for free: they only need to appear in Backends().

// conformanceCfg is oversized for the conformance stream: no hash
// collisions and no buffer spill, so every backend must report
// identical exact answers, making byte-for-byte diffs meaningful.
var conformanceCfg = gss.Config{Width: 128, FingerprintBits: 16, Rooms: 4, SeqLen: 8, Candidates: 8}

// observation is everything a Sketch exposes, in canonical form.
type observation struct {
	Edges map[[2]string]int64
	Succ  map[string][]string
	Prec  map[string][]string
	Nodes []string
	Heavy map[int64][]string
	Items int64
}

// observe interrogates sk with every query primitive over the
// universe items define. Slices are sorted so backends that return
// sets in different orders still compare equal.
func observe(sk Sketch, items []stream.Item) observation {
	ob := observation{
		Edges: map[[2]string]int64{},
		Succ:  map[string][]string{},
		Prec:  map[string][]string{},
		Heavy: map[int64][]string{},
	}
	nodes := map[string]bool{}
	for _, it := range items {
		nodes[it.Src], nodes[it.Dst] = true, true
		if _, seen := ob.Edges[[2]string{it.Src, it.Dst}]; seen {
			continue
		}
		if w, ok := sk.EdgeWeight(it.Src, it.Dst); ok {
			ob.Edges[[2]string{it.Src, it.Dst}] = w
		}
	}
	for v := range nodes {
		ob.Succ[v] = sortedCopy(sk.Successors(v))
		ob.Prec[v] = sortedCopy(sk.Precursors(v))
	}
	ob.Nodes = sortedCopy(sk.Nodes())
	for _, min := range []int64{1, 10, 50, 200} {
		var formatted []string
		for _, he := range sk.HeavyEdges(min) {
			formatted = append(formatted, fmt.Sprintf("%v->%v=%d",
				sortedCopy(he.Srcs), sortedCopy(he.Dsts), he.Weight))
		}
		sort.Strings(formatted)
		ob.Heavy[min] = formatted
	}
	// Stats fields beyond Items are backend-shaped (per-shard widths,
	// window counters); the item count is the cross-backend invariant.
	ob.Items = sk.Stats().Items
	return ob
}

func sortedCopy(s []string) []string {
	out := append([]string{}, s...)
	sort.Strings(out)
	return out
}

// diffObservations reports where two observations disagree.
func diffObservations(t *testing.T, label string, got, want observation) {
	t.Helper()
	if got.Items != want.Items {
		t.Errorf("%s: Items = %d, want %d", label, got.Items, want.Items)
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Errorf("%s: edge weights diverge from baseline", label)
	}
	if !reflect.DeepEqual(got.Succ, want.Succ) {
		t.Errorf("%s: successor sets diverge from baseline", label)
	}
	if !reflect.DeepEqual(got.Prec, want.Prec) {
		t.Errorf("%s: precursor sets diverge from baseline", label)
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Errorf("%s: node sets diverge: %d vs %d nodes", label, len(got.Nodes), len(want.Nodes))
	}
	if !reflect.DeepEqual(got.Heavy, want.Heavy) {
		t.Errorf("%s: heavy-edge lists diverge:\n got %v\nwant %v", label, got.Heavy, want.Heavy)
	}
}

// runScript drives sk through the canonical ingestion script: a
// single-item warmup (the per-item path), then the batched path.
func runScript(sk Sketch, items []stream.Item) {
	for _, it := range items[:50] {
		sk.Insert(it)
	}
	sk.InsertBatch(items[50:])
}

func conformanceStream() []stream.Item {
	return stream.Generate(stream.DatasetConfig{Name: "conformance", Nodes: 150, Edges: 2500,
		DegreeSkew: 1.5, WeightSkew: 1.3, MaxWeight: 80, Seed: 23})
}

func TestBackendConformance(t *testing.T) {
	items := conformanceStream()
	baselineSk := gss.MustNew(conformanceCfg)
	runScript(baselineSk, items)
	baseline := observe(baselineSk, items)
	if baseline.Items != int64(len(items)) || len(baseline.Edges) == 0 {
		t.Fatalf("weak baseline: %d items, %d edges", baseline.Items, len(baseline.Edges))
	}

	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			sk, err := New(backend, conformanceCfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			runScript(sk, items)
			diffObservations(t, "ingest", observe(sk, items), baseline)

			// Snapshot → restore into a fresh instance: the restored
			// sketch must be observationally identical.
			var snap bytes.Buffer
			if err := sk.Snapshot(&snap); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			restored, err := New(backend, conformanceCfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("restore: %v", err)
			}
			diffObservations(t, "restore", observe(restored, items), baseline)

			// Hot swap — the read-replica path: an empty Hot-wrapped
			// backend answers empty, swaps to the restored sketch in one
			// store, then matches the baseline and keeps ingesting.
			empty, err := New(backend, conformanceCfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			hot := NewHot(empty)
			if n := hot.Stats().Items; n != 0 {
				t.Fatalf("pre-swap Hot has %d items", n)
			}
			hot.Swap(restored)
			diffObservations(t, "swap", observe(hot, items), baseline)
			hot.Insert(stream.Item{Src: "post-swap", Dst: "write",
				Weight: 3, Time: items[len(items)-1].Time})
			if w, ok := hot.EdgeWeight("post-swap", "write"); !ok || w != 3 {
				t.Fatalf("post-swap insert = %d,%v", w, ok)
			}

			// Garbage and truncation must error and leave state intact.
			probe := items[0]
			before, _ := restored.EdgeWeight(probe.Src, probe.Dst)
			if err := restored.Restore(strings.NewReader("not a snapshot")); err == nil {
				t.Fatal("garbage restore accepted")
			}
			if err := restored.Restore(bytes.NewReader(snap.Bytes()[:snap.Len()/2])); err == nil {
				t.Fatal("truncated restore accepted")
			}
			if after, _ := restored.EdgeWeight(probe.Src, probe.Dst); after != before {
				t.Fatalf("failed restore mutated state: %d -> %d", before, after)
			}
		})
	}
}

// TestConformanceDetectsDrift sanity-checks the battery itself: a
// sketch that diverges from the baseline must produce a non-equal
// observation, otherwise the battery proves nothing.
func TestConformanceDetectsDrift(t *testing.T) {
	items := conformanceStream()
	a := gss.MustNew(conformanceCfg)
	runScript(a, items)
	b := gss.MustNew(conformanceCfg)
	runScript(b, items)
	b.Insert(stream.Item{Src: items[0].Src, Dst: items[0].Dst, Weight: 1,
		Time: items[len(items)-1].Time})
	if reflect.DeepEqual(observe(a, items), observe(b, items)) {
		t.Fatal("observation blind to a one-item divergence")
	}
}
