package query

import (
	"container/heap"
	"slices"
	"sort"
	"sync"
)

// HashSummary is the hash-native query plane of a summary: the same
// three primitives as Summary, but over the uint64 hash values the
// sketch actually stores. Compound algorithms traverse hashes with
// dense integer frontiers and expand to original identifiers once at
// the API edge, instead of paying hash -> string expansion, a string
// sort and a fresh visited map on every hop.
//
// The Append* methods append to a caller-provided buffer and return it,
// so steady-state traversals allocate nothing on the summary side.
// Results are duplicate-free but unordered.
//
// The plane is tied to the node index: only hash values with at least
// one registered identifier are traversed (AppendHashIDs returning
// empty marks a false-positive hash the string plane's expand would
// silently drop), which keeps both planes answering identically.
// Identifiers that collide onto one hash value are treated as a single
// node here, where the string plane enumerates them separately; the
// node map makes collisions rare by design, and StripHash always
// recovers the reference behavior.
type HashSummary interface {
	// NodeHash maps an original identifier into the summary's hash space.
	NodeHash(v string) uint64
	// EdgeWeightHash is the edge query primitive over hash values.
	EdgeWeightHash(hs, hd uint64) (int64, bool)
	// AppendSuccessorHashes appends the 1-hop successor hashes of hv.
	AppendSuccessorHashes(hv uint64, dst []uint64) []uint64
	// AppendPrecursorHashes appends the 1-hop precursor hashes of hv.
	AppendPrecursorHashes(hv uint64, dst []uint64) []uint64
	// AppendNodeHashes appends every registered node hash, deduplicated.
	AppendNodeHashes(dst []uint64) []uint64
	// AppendHashIDs appends the original identifiers registered under hv.
	AppendHashIDs(hv uint64, dst []string) []string
	// SupportsHashQueries reports whether the plane is actually backed;
	// wrappers around hash-incapable summaries return false and callers
	// fall back to the string plane.
	SupportsHashQueries() bool
}

// HashView returns the hash-native plane of s when it has a backed one.
// The compound algorithms in this package call it to pick their fast
// path; summaries that don't implement HashSummary (or whose node index
// is disabled) run the string-based reference implementations instead.
func HashView(s Summary) (HashSummary, bool) {
	h, ok := s.(HashSummary)
	if !ok || !h.SupportsHashQueries() {
		return nil, false
	}
	return h, true
}

// StripHash hides s's hash-native plane, forcing every algorithm in
// this package onto the string-based reference implementations. The
// equivalence suite pins the fast path to the reference with it, and
// gss-bench uses it as the before-side of traversal speedups.
func StripHash(s Summary) Summary { return stripped{s} }

type stripped struct{ Summary }

// traversal is the pooled scratch a hash-native algorithm needs: the
// hash -> dense id assignment, the dense id -> hash reverse, an integer
// frontier, and reusable buffers for neighbor and identifier lookups.
// Dense ids make visited checks and frontiers slice-indexed; the map is
// touched once per distinct hash, not once per edge.
type traversal struct {
	ids    map[uint64]int32 // hash -> dense id
	hashes []uint64         // dense id -> hash
	queue  []int32
	nbr    []uint64
	idbuf  []string
}

var traversalPool = sync.Pool{New: func() interface{} {
	return &traversal{ids: make(map[uint64]int32)}
}}

func getTraversal() *traversal { return traversalPool.Get().(*traversal) }

// maxPooledIDs bounds the id map a pooled traversal keeps. Clearing a
// map costs time in proportion to the largest size it ever reached, so
// one hub-sized search would tax every later small search that drew
// the same scratch; a map past this size is dropped instead.
const maxPooledIDs = 1 << 12

func putTraversal(t *traversal) {
	if len(t.ids) > maxPooledIDs {
		t.ids = make(map[uint64]int32)
	} else {
		clear(t.ids)
	}
	t.hashes = t.hashes[:0]
	t.queue = t.queue[:0]
	t.nbr = t.nbr[:0]
	t.idbuf = t.idbuf[:0]
	traversalPool.Put(t)
}

// intern assigns (or returns) the dense id of hv.
func (t *traversal) intern(hv uint64) (id int32, fresh bool) {
	if id, ok := t.ids[hv]; ok {
		return id, false
	}
	id = int32(len(t.hashes))
	t.ids[hv] = id
	t.hashes = append(t.hashes, hv)
	return id, true
}

// registered reports whether hv has at least one registered identifier
// — the hashes the string plane's expand would keep.
func (t *traversal) registered(h HashSummary, hv uint64) bool {
	t.idbuf = h.AppendHashIDs(hv, t.idbuf[:0])
	return len(t.idbuf) > 0
}

// hashHasID reports whether id is registered under hv.
func (t *traversal) hashHasID(h HashSummary, hv uint64, id string) bool {
	t.idbuf = h.AppendHashIDs(hv, t.idbuf[:0])
	for _, have := range t.idbuf {
		if have == id {
			return true
		}
	}
	return false
}

// reachableHash answers Reachable over the hash plane with a
// bidirectional BFS: a forward frontier over successor queries from src
// and a backward frontier over precursor queries from dst, always
// expanding the smaller side. The reverse column index is what makes
// the backward half as cheap as the forward one — precisely the
// reverse-query capability TCM-style baselines are sold on. The answer
// is identical to the one-directional reference: a directed path
// src ->* dst through registered intermediate hashes exists iff the two
// frontiers meet (at a registered hash or at either endpoint's hash).
// Frontiers only cross registered hashes, matching the reference whose
// expand step drops unregistered recoveries, and dst counts as
// reachable only if it is itself registered — the string BFS can only
// ever see dst as an expanded identifier.
func reachableHash(h HashSummary, src, dst string) bool {
	if src == dst {
		return true
	}
	t := getTraversal()
	defer putTraversal(t)
	ht := h.NodeHash(dst)
	if !t.hashHasID(h, ht, dst) {
		return false
	}
	hs := h.NodeHash(src)
	if hs == ht {
		// src and dst are distinct identifiers on the same sketch node.
		// The string BFS only answers true when dst shows up in some
		// visited node's successor list, i.e. when an edge back into
		// this hash exists — so the question becomes "does hs lie on a
		// directed cycle", not a bidirectional search between two
		// distinct hashes.
		return selfReach(h, t, hs)
	}
	// The pooled ids map doubles as the side tag here: fwd or bwd
	// instead of dense ids. hs and ht are pre-tagged, so the case-0
	// branches below only ever see interior hashes.
	const fwd, bwd = 1, 2
	side := t.ids
	side[hs], side[ht] = fwd, bwd
	fq := []uint64{hs}
	bq := []uint64{ht}
	for len(fq) > 0 && len(bq) > 0 {
		if len(fq) <= len(bq) {
			var next []uint64
			for _, hv := range fq {
				t.nbr = h.AppendSuccessorHashes(hv, t.nbr[:0])
				for _, n := range t.nbr {
					switch side[n] {
					case bwd:
						return true
					case 0:
						if !t.registered(h, n) {
							continue
						}
						side[n] = fwd
						next = append(next, n)
					}
				}
			}
			fq = next
		} else {
			var next []uint64
			for _, hv := range bq {
				t.nbr = h.AppendPrecursorHashes(hv, t.nbr[:0])
				for _, n := range t.nbr {
					switch side[n] {
					case fwd:
						return true
					case 0:
						if !t.registered(h, n) {
							continue
						}
						side[n] = bwd
						next = append(next, n)
					}
				}
			}
			bq = next
		}
	}
	return false
}

// selfReach reports whether sketch node hv lies on a directed cycle
// (including a self-loop) through registered hashes — the condition for
// src to reach dst when both map to the same hash. One forward BFS from
// hv looking for hv again.
func selfReach(h HashSummary, t *traversal, hv uint64) bool {
	start, _ := t.intern(hv)
	t.queue = append(t.queue[:0], start)
	for len(t.queue) > 0 {
		cur := t.queue[0]
		t.queue = t.queue[1:]
		t.nbr = h.AppendSuccessorHashes(t.hashes[cur], t.nbr[:0])
		for _, n := range t.nbr {
			if n == hv {
				return true
			}
			if _, ok := t.ids[n]; ok {
				continue
			}
			if !t.registered(h, n) {
				continue
			}
			id, _ := t.intern(n)
			t.queue = append(t.queue, id)
		}
	}
	return false
}

// kHopHash is KHop over the hash plane: BFS to depth k with dense
// frontiers, one expansion to identifiers at the end.
func kHopHash(h HashSummary, v string, k int) []string {
	if k <= 0 {
		return nil
	}
	t := getTraversal()
	defer putTraversal(t)
	start, _ := t.intern(h.NodeHash(v))
	frontier := append(t.queue[:0], start)
	var next []int32
	for depth := 0; depth < k && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, cur := range frontier {
			t.nbr = h.AppendSuccessorHashes(t.hashes[cur], t.nbr[:0])
			for _, hv := range t.nbr {
				if _, ok := t.ids[hv]; ok {
					continue
				}
				if !t.registered(h, hv) {
					continue
				}
				id, _ := t.intern(hv)
				next = append(next, id)
			}
		}
		frontier, next = next, frontier
	}
	// Everything interned beyond the start node was reached within k
	// hops; expand once and sort once at the string boundary.
	var out []string
	for _, hv := range t.hashes[1:] {
		out = h.AppendHashIDs(hv, out)
	}
	sort.Strings(out)
	return out
}

// wccHash computes the weakly connected components over registered
// hashes, expanding each component to identifiers at the edge.
func wccHash(h HashSummary) [][]string {
	t := getTraversal()
	defer putTraversal(t)
	all := h.AppendNodeHashes(nil)
	slices.Sort(all) // deterministic discovery order
	var comps [][]string
	for _, root := range all {
		if _, ok := t.ids[root]; ok {
			continue
		}
		id, _ := t.intern(root)
		t.queue = append(t.queue[:0], id)
		compStart := id
		for len(t.queue) > 0 {
			cur := t.queue[0]
			t.queue = t.queue[1:]
			hv := t.hashes[cur]
			t.nbr = h.AppendSuccessorHashes(hv, t.nbr[:0])
			t.nbr = h.AppendPrecursorHashes(hv, t.nbr)
			for _, n := range t.nbr {
				if _, ok := t.ids[n]; ok {
					continue
				}
				if !t.registered(h, n) {
					continue
				}
				nid, _ := t.intern(n)
				t.queue = append(t.queue, nid)
			}
		}
		var comp []string
		for _, hv := range t.hashes[compStart:] {
			comp = h.AppendHashIDs(hv, comp)
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// pageRankHash runs weighted PageRank over the hash plane with dense
// float slices, expanding per-node scores to identifiers at the edge.
func pageRankHash(h HashSummary, damping float64, iters int) map[string]float64 {
	t := getTraversal()
	defer putTraversal(t)
	all := h.AppendNodeHashes(nil)
	slices.Sort(all) // deterministic summation order
	n := len(all)
	if n == 0 {
		return nil
	}
	for _, hv := range all {
		t.intern(hv)
	}
	// CSR-style adjacency over dense ids.
	type outEdge struct {
		to int32
		w  float64
	}
	adj := make([][]outEdge, n)
	outWeight := make([]float64, n)
	for i, hv := range all {
		t.nbr = h.AppendSuccessorHashes(hv, t.nbr[:0])
		for _, d := range t.nbr {
			did, ok := t.ids[d]
			if !ok {
				continue // unregistered recovery, invisible to the reference
			}
			if w, okw := h.EdgeWeightHash(hv, d); okw && w > 0 {
				adj[i] = append(adj[i], outEdge{to: did, w: float64(w)})
				outWeight[i] += float64(w)
			}
		}
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		var danglingMass float64
		for i := range all {
			if outWeight[i] == 0 {
				danglingMass += rank[i]
				continue
			}
			share := rank[i] / outWeight[i]
			for _, e := range adj[i] {
				next[e.to] += damping * share * e.w
			}
		}
		base := (1-damping)/float64(n) + damping*danglingMass/float64(n)
		for i := range next {
			next[i] += base
		}
		rank, next = next, rank
	}
	out := make(map[string]float64, n)
	for i, hv := range all {
		t.idbuf = h.AppendHashIDs(hv, t.idbuf[:0])
		for _, id := range t.idbuf {
			out[id] = rank[i]
		}
	}
	return out
}

// shortestPathHash is Dijkstra over the hash plane. Ties between
// equal-cost paths may resolve differently from the string reference
// (frontier orders differ), but the cost and reachability verdict are
// identical; intermediate hops expand to their first registered
// identifier.
func shortestPathHash(h HashSummary, src, dst string) (path []string, cost int64, ok bool) {
	if src == dst {
		return []string{src}, 0, true
	}
	t := getTraversal()
	defer putTraversal(t)
	ht := h.NodeHash(dst)
	if !t.hashHasID(h, ht, dst) {
		return nil, 0, false
	}
	start, _ := t.intern(h.NodeHash(src))
	const unset = int32(-1)
	dist := []int64{0}
	parent := []int32{unset}
	done := []bool{false}
	grow := func(id int32) {
		for int(id) >= len(dist) {
			dist = append(dist, 0)
			parent = append(parent, unset)
			done = append(done, false)
		}
	}
	pq := &denseHeap{{id: start, dist: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(denseDist)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		hv := t.hashes[cur.id]
		if hv == ht {
			return t.tracePathHash(h, cur.id, src, dst, parent), cur.dist, true
		}
		t.nbr = h.AppendSuccessorHashes(hv, t.nbr[:0])
		// The neighbor buffer is reused per pop, so capture weights
		// before any recursive use; EdgeWeightHash does not touch nbr.
		for _, d := range t.nbr {
			w, okw := h.EdgeWeightHash(hv, d)
			if !okw || w <= 0 {
				continue // zero/negative residues are not traversable
			}
			if _, seen := t.ids[d]; !seen && d != ht && !t.registered(h, d) {
				continue
			}
			nd := cur.dist + w
			id, fresh := t.intern(d)
			grow(id)
			if fresh || (!done[id] && nd < dist[id]) {
				dist[id] = nd
				parent[id] = cur.id
				heap.Push(pq, denseDist{id: id, dist: nd})
			}
		}
	}
	return nil, 0, false
}

// tracePathHash walks dense parents back from cur and expands each hop:
// the endpoints keep the caller's identifiers, intermediates take their
// first registered identifier (unique unless hashes collide).
func (t *traversal) tracePathHash(h HashSummary, cur int32, src, dst string, parent []int32) []string {
	var rev []string
	for id := cur; id >= 0; id = parent[id] {
		switch {
		case id == cur:
			rev = append(rev, dst)
		case parent[id] < 0: // the start node
			rev = append(rev, src)
		default:
			t.idbuf = h.AppendHashIDs(t.hashes[id], t.idbuf[:0])
			if len(t.idbuf) == 0 {
				rev = append(rev, "")
			} else {
				rev = append(rev, t.idbuf[0])
			}
		}
	}
	out := make([]string, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

type denseDist struct {
	id   int32
	dist int64
}

type denseHeap []denseDist

func (h denseHeap) Len() int            { return len(h) }
func (h denseHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h denseHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *denseHeap) Push(x interface{}) { *h = append(*h, x.(denseDist)) }
func (h *denseHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// trianglesHash counts triangles in the undirected projection over the
// hash plane: neighbor sets are sorted uint64 slices intersected with a
// merge walk, no per-node string sets.
func trianglesHash(h HashSummary) int64 {
	all := h.AppendNodeHashes(nil)
	slices.Sort(all)
	n := len(all)
	rank := make(map[uint64]int32, n)
	for i, hv := range all {
		rank[hv] = int32(i)
	}
	neigh := make([][]uint64, n)
	var buf []uint64
	for i, hv := range all {
		buf = h.AppendSuccessorHashes(hv, buf[:0])
		buf = h.AppendPrecursorHashes(hv, buf)
		set := make([]uint64, 0, len(buf))
		for _, d := range buf {
			if d == hv {
				continue // self-loop
			}
			if _, ok := rank[d]; !ok {
				continue // unregistered recovery
			}
			set = append(set, d)
		}
		slices.Sort(set)
		set = slices.Compact(set) // successor and precursor lists overlap
		neigh[i] = set
	}
	var count int64
	for i, hv := range all {
		for _, u := range neigh[i] {
			if u <= hv {
				continue
			}
			j := rank[u]
			// Count common neighbors w > u of the edge {hv, u}.
			count += countCommonAbove(neigh[i], neigh[j], u)
		}
	}
	return count
}

// countCommonAbove merges two sorted neighbor lists counting common
// elements strictly greater than floor.
func countCommonAbove(a, b []uint64, floor uint64) int64 {
	i := sort.Search(len(a), func(k int) bool { return a[k] > floor })
	j := sort.Search(len(b), func(k int) bool { return b[k] > floor })
	var n int64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// nodeOutHash sums the out-edge weights of v over the hash plane.
func nodeOutHash(h HashSummary, v string) int64 {
	t := getTraversal()
	defer putTraversal(t)
	hv := h.NodeHash(v)
	t.nbr = h.AppendSuccessorHashes(hv, t.nbr[:0])
	var sum int64
	for _, d := range t.nbr {
		if !t.registered(h, d) {
			continue
		}
		if w, ok := h.EdgeWeightHash(hv, d); ok {
			sum += w
		}
	}
	return sum
}

// nodeInHash sums the in-edge weights of v over the hash plane.
func nodeInHash(h HashSummary, v string) int64 {
	t := getTraversal()
	defer putTraversal(t)
	hv := h.NodeHash(v)
	t.nbr = h.AppendPrecursorHashes(hv, t.nbr[:0])
	var sum int64
	for _, s := range t.nbr {
		if !t.registered(h, s) {
			continue
		}
		if w, ok := h.EdgeWeightHash(s, hv); ok {
			sum += w
		}
	}
	return sum
}
