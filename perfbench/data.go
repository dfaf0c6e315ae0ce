package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/adjlist"
	"repro/internal/stream"
)

// dataset is everything a run derives from its seed before any process
// starts: the stream, the request bodies rendered from it, and the exact
// reference the answers are checked against.
type dataset struct {
	items  []stream.Item
	ndjson [][]byte // body b holds items[b*bodyItems : (b+1)*bodyItems]
	gsb1   [][]byte // the same slices, hashed and framed as GSB1
	ref    *adjlist.Graph

	edges [][2]string // distinct edges of the stream, in first-seen order
	srcs  []string    // nodes with at least one successor, sorted
	dsts  []string    // nodes with at least one precursor, sorted
	// succ and pred list each node's reference neighbours by ordinal
	// (node "n42" is ordinal 42), so a check costs no string work.
	succ, pred [][]int32
	heavy      [][2]string // edges whose reference weight reaches heavyMin
}

// nodeOrd parses a stream.NodeID back to its ordinal.
func nodeOrd(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'n' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil && n >= 0
}

// streamConfig is the generator configuration every workload uses: the
// lkml-reply shape (Zipf endpoints with a uniform mix, repeated edges,
// Zipfian weights) cut to streamItems items and re-seeded.
func streamConfig(seed int64) stream.DatasetConfig {
	c := stream.LkmlReply()
	c.Edges = streamItems
	c.Seed = seed
	return c
}

// newDataset generates the stream for seed, renders the bodies and
// builds the reference graph.
func newDataset(seed int64) (*dataset, error) {
	c := streamConfig(seed)
	items := stream.Generate(c)
	// The generator numbers items from time 0, and the server stamps a
	// zero time with the arrival clock. Shifting by one keeps every item
	// as generated, so GSB1 payloads reach the log verbatim.
	for i := range items {
		items[i].Time++
	}
	return buildDataset(items, c.Nodes)
}

// buildDataset derives the bodies and the reference from items whose
// node IDs are stream.NodeID ordinals below nodes.
func buildDataset(items []stream.Item, nodes int) (*dataset, error) {
	d := &dataset{items: items, ref: adjlist.New()}
	seen := make(map[[2]string]struct{}, len(items)/2)
	for _, it := range items {
		d.ref.Insert(it.Src, it.Dst, it.Weight)
		k := [2]string{it.Src, it.Dst}
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			d.edges = append(d.edges, k)
		}
	}
	for _, e := range d.edges {
		if w, _ := d.ref.EdgeWeight(e[0], e[1]); w >= heavyMin {
			d.heavy = append(d.heavy, e)
		}
	}
	d.succ, d.pred = make([][]int32, nodes), make([][]int32, nodes)
	for _, e := range d.edges {
		s, ok1 := nodeOrd(e[0])
		t, ok2 := nodeOrd(e[1])
		if !ok1 || !ok2 || s >= nodes || t >= nodes {
			return nil, fmt.Errorf("generated node IDs %s, %s out of range", e[0], e[1])
		}
		d.succ[s] = append(d.succ[s], int32(t))
		d.pred[t] = append(d.pred[t], int32(s))
	}
	for _, v := range d.ref.Nodes() {
		if d.ref.OutDegree(v) > 0 {
			d.srcs = append(d.srcs, v)
		}
		if d.ref.InDegree(v) > 0 {
			d.dsts = append(d.dsts, v)
		}
	}
	for lo := 0; lo < len(items); lo += bodyItems {
		part := items[lo:min(lo+bodyItems, len(items))]
		var nd bytes.Buffer
		if err := stream.EncodeNDJSON(&nd, part); err != nil {
			return nil, fmt.Errorf("render ndjson body: %w", err)
		}
		bin, err := gsb1Body(part)
		if err != nil {
			return nil, err
		}
		d.ndjson = append(d.ndjson, nd.Bytes())
		d.gsb1 = append(d.gsb1, bin)
	}
	return d, nil
}

// gsb1Body hashes items and frames them as one GSB1 request body.
func gsb1Body(items []stream.Item) ([]byte, error) {
	var bin bytes.Buffer
	bw := stream.NewBinaryBatchWriter(&bin)
	if err := bw.WriteItems(items); err != nil {
		return nil, fmt.Errorf("render gsb1 body: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("render gsb1 body: %w", err)
	}
	return bin.Bytes(), nil
}

// bodyLen is the item count of body b.
func (d *dataset) bodyLen(b int) int {
	return min(bodyItems, len(d.items)-b*bodyItems)
}

// pickIndices draws n distinct indices below limit with a fixed rng, so the
// accuracy samples repeat exactly for a seed.
func pickIndices(seed int64, limit, n int) []int {
	r := rand.New(rand.NewSource(seed))
	if n >= limit {
		return r.Perm(limit)
	}
	return r.Perm(limit)[:n]
}

// finalWeights returns the exact weight of each edge in edges after the
// preload and the acknowledged bodies: item i contributes its weight
// once per acknowledgement of its body, plus once if it was preloaded.
func (d *dataset) finalWeights(edges [][2]string, preloaded bool, acks []int64) []int64 {
	pos := make(map[[2]string]int, len(edges))
	for i, e := range edges {
		pos[e] = i
	}
	out := make([]int64, len(edges))
	base := int64(0)
	if preloaded {
		base = 1
	}
	for i, it := range d.items {
		j, ok := pos[[2]string{it.Src, it.Dst}]
		if !ok {
			continue
		}
		out[j] += it.Weight * (base + acks[i/bodyItems])
	}
	return out
}
