package query

import (
	"fmt"
	"testing"

	"repro/internal/gss"
	"repro/internal/stream"
)

// BenchmarkSmallReachAfterHubSearch times one-hop reachability searches
// on a sketch where a hub-sized search runs now and then — the mix a
// degree-skewed query stream draws. The hub search from a, which fans
// out to fan nodes, to z, which only a short chain leads into, tags
// every fan node in the pooled traversal's id map before it fails, so
// the benchmark shows what reusing that scratch costs the small
// searches.
func BenchmarkSmallReachAfterHubSearch(b *testing.B) {
	const fan, pairs = 20000, 1000
	items := []stream.Item{{Src: "y2", Dst: "y1", Weight: 1}, {Src: "y1", Dst: "z", Weight: 1}}
	for i := 0; i < fan; i++ {
		items = append(items, stream.Item{Src: "a", Dst: fmt.Sprint("f", i), Weight: 1})
	}
	for i := 0; i < pairs; i++ {
		items = append(items, stream.Item{Src: fmt.Sprint("s", i), Dst: fmt.Sprint("t", i), Weight: 1})
	}
	g := gss.MustNew(gss.Config{Width: 400, FingerprintBits: 16})
	g.InsertBatch(items)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%pairs == 0 {
			b.StopTimer()
			if Reachable(g, "a", "z") {
				b.Fatal("a reaches z")
			}
			b.StartTimer()
		}
		if !Reachable(g, fmt.Sprint("s", i%pairs), fmt.Sprint("t", i%pairs)) {
			b.Fatal("pair unreachable")
		}
	}
}
