package sketch

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/gss"
	"repro/internal/query"
	"repro/internal/stream"
)

// Randomized equivalence suite for the hash-native query plane: every
// compound algorithm must answer exactly like its string-based
// reference (forced via query.StripHash) on every registered backend,
// on seeded random graphs. This is the cross-backend proof that the
// reverse column index, the occupancy-word walks and the dense-frontier
// traversals changed speed, not answers.
//
// The graphs are collision-free by construction (asserted below): under
// node-hash collisions the two planes legitimately differ — the hash
// plane treats colliding identifiers as one node — and the sized-up
// fingerprint space makes collisions a non-event at this node count.

// equivCfg is oversized like conformanceCfg so hash collisions cannot
// blur the comparison.
var equivCfg = gss.Config{Width: 96, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}

func equivStream(seed int64) []stream.Item {
	return stream.Generate(stream.DatasetConfig{Name: "query-equiv", Nodes: 120,
		Edges: 1800, DegreeSkew: 1.5, WeightSkew: 1.3, MaxWeight: 60, Seed: seed})
}

// assertCollisionFree fails when any two identifiers share a node hash;
// the seeds below were chosen so they never do.
func assertCollisionFree(t *testing.T, sk Sketch) query.HashSummary {
	t.Helper()
	h, ok := query.HashView(sk)
	if !ok {
		t.Fatal("backend does not expose a hash-native query plane")
	}
	for _, hv := range h.AppendNodeHashes(nil) {
		if ids := h.AppendHashIDs(hv, nil); len(ids) != 1 {
			t.Fatalf("hash %d registers %v; pick a collision-free seed", hv, ids)
		}
	}
	return h
}

func checkQueryEquivalence(t *testing.T, sk Sketch, items []stream.Item) {
	t.Helper()
	assertCollisionFree(t, sk)
	ref := query.StripHash(sk)
	if _, ok := query.HashView(ref); ok {
		t.Fatal("StripHash failed to hide the hash plane")
	}

	nodes := sk.Nodes()
	probes := append([]string{}, nodes[:12]...)
	probes = append(probes, "ghost-a", "ghost-b") // never inserted

	for i, a := range probes {
		for _, k := range []int{1, 2, 4} {
			if got, want := query.KHop(sk, a, k), query.KHop(ref, a, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("KHop(%s,%d): fast %v != ref %v", a, k, got, want)
			}
		}
		if got, want := query.NodeOut(sk, a), query.NodeOut(ref, a); got != want {
			t.Fatalf("NodeOut(%s): fast %d != ref %d", a, got, want)
		}
		if got, want := query.NodeIn(sk, a), query.NodeIn(ref, a); got != want {
			t.Fatalf("NodeIn(%s): fast %d != ref %d", a, got, want)
		}
		for j, b := range probes {
			if got, want := query.Reachable(sk, a, b), query.Reachable(ref, a, b); got != want {
				t.Fatalf("Reachable(%s,%s): fast %v != ref %v", a, b, got, want)
			}
			if i%3 == 0 && j%3 == 0 {
				checkShortestPath(t, sk, ref, a, b)
			}
		}
	}

	if got, want := query.WeaklyConnectedComponents(sk), query.WeaklyConnectedComponents(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("WCC: fast %d comps != ref %d comps\nfast %v\nref  %v",
			len(got), len(want), got, want)
	}
	if got, want := query.Triangles(sk), query.Triangles(ref); got != want {
		t.Fatalf("Triangles: fast %d != ref %d", got, want)
	}

	fastPR := query.PageRank(sk, 0.85, 12)
	refPR := query.PageRank(ref, 0.85, 12)
	if len(fastPR) != len(refPR) {
		t.Fatalf("PageRank: fast has %d nodes, ref %d", len(fastPR), len(refPR))
	}
	for v, want := range refPR {
		got, ok := fastPR[v]
		if !ok {
			t.Fatalf("PageRank: fast path missing node %s", v)
		}
		// Summation order differs between the planes, so allow float
		// noise — anything beyond it is a real divergence.
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("PageRank(%s): fast %g != ref %g", v, got, want)
		}
	}
}

// checkShortestPath compares cost and reachability, and validates the
// fast path's route edge by edge: equal-cost ties may route
// differently, so path equality is deliberately not asserted.
func checkShortestPath(t *testing.T, sk Sketch, ref query.Summary, a, b string) {
	t.Helper()
	fastPath, fastCost, fastOK := query.ShortestPath(sk, a, b)
	_, refCost, refOK := query.ShortestPath(ref, a, b)
	if fastOK != refOK || fastCost != refCost {
		t.Fatalf("ShortestPath(%s,%s): fast (%d,%v) != ref (%d,%v)",
			a, b, fastCost, fastOK, refCost, refOK)
	}
	if !fastOK {
		return
	}
	if fastPath[0] != a || fastPath[len(fastPath)-1] != b {
		t.Fatalf("ShortestPath(%s,%s): endpoints %v", a, b, fastPath)
	}
	var sum int64
	for i := 0; i+1 < len(fastPath); i++ {
		w, ok := sk.EdgeWeight(fastPath[i], fastPath[i+1])
		if !ok || w <= 0 {
			t.Fatalf("ShortestPath(%s,%s): hop %s->%s not traversable",
				a, b, fastPath[i], fastPath[i+1])
		}
		sum += w
	}
	if sum != fastCost {
		t.Fatalf("ShortestPath(%s,%s): path sums to %d, reported %d", a, b, sum, fastCost)
	}
}

func TestQueryEquivalenceAcrossBackends(t *testing.T) {
	items := equivStream(71)
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			sk, err := New(backend, equivCfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			runScript(sk, items)
			checkQueryEquivalence(t, sk, items)

			// The plane must survive snapshot/restore — the reverse
			// index is rebuilt, not serialized, and the answers must
			// not notice.
			var snap bytes.Buffer
			if err := sk.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := New(backend, equivCfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			checkQueryEquivalence(t, restored, items)

			// And survive a Hot swap, the read-replica read path.
			hot := NewHot(restored)
			checkQueryEquivalence(t, hot, items)
		})
	}
}

// TestQueryEquivalenceSeeds runs the cheaper probes over several seeds
// on a bare gss.GSS, widening the random coverage where it is
// cheapest.
func TestQueryEquivalenceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed equivalence runs in the full suite")
	}
	for _, seed := range []int64{5, 17, 29, 83} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			sk := gss.MustNew(equivCfg)
			sk.InsertBatch(equivStream(seed))
			checkQueryEquivalence(t, sk, nil)
		})
	}
}

// TestHashViewGating: summaries without a node index must fall back to
// the string plane instead of claiming a hash plane that cannot expand
// results.
func TestHashViewGating(t *testing.T) {
	g, err := gss.New(gss.Config{Width: 32, DisableNodeIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := query.HashView(g); ok {
		t.Fatal("index-less GSS claims a backed hash plane")
	}
	locked := NewLocked(g)
	if _, ok := query.HashView(locked); ok {
		t.Fatal("Locked over index-less GSS claims a backed hash plane")
	}
	if _, ok := query.HashView(NewHot(locked)); ok {
		t.Fatal("Hot over index-less backend claims a backed hash plane")
	}
}
