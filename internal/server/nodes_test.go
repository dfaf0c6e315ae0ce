package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/sketch"
)

// nodesResponse mirrors the /nodes payload.
type nodesResponse struct {
	Nodes     []string `json:"nodes"`
	Total     int      `json:"total"`
	Truncated bool     `json:"truncated"`
}

func TestNodesLimit(t *testing.T) {
	for _, backend := range sketch.Backends() {
		t.Run(backend, func(t *testing.T) {
			_, ts := newIngestServer(t, Options{Backend: backend})
			var lines []string
			for i := 0; i < 20; i++ {
				lines = append(lines, fmt.Sprintf(`{"src":"s%02d","dst":"d%02d"}`, i, i))
			}
			post(t, ts.URL+"/ingest", strings.Join(lines, "\n")).Body.Close()

			var full nodesResponse
			getJSON(t, ts.URL+"/nodes", &full)
			if len(full.Nodes) != 40 || full.Total != 40 || full.Truncated {
				t.Fatalf("full = %d nodes, total %d, truncated %v",
					len(full.Nodes), full.Total, full.Truncated)
			}
			if !sort.StringsAreSorted(full.Nodes) {
				t.Fatal("full node set is not sorted")
			}

			var page nodesResponse
			getJSON(t, ts.URL+"/nodes?limit=7", &page)
			if len(page.Nodes) != 7 || page.Total != 40 || !page.Truncated {
				t.Fatalf("page = %d nodes, total %d, truncated %v",
					len(page.Nodes), page.Total, page.Truncated)
			}
			if !sort.StringsAreSorted(page.Nodes) {
				t.Fatal("page is not sorted")
			}
			// Every page entry must be a real node.
			all := map[string]bool{}
			for _, v := range full.Nodes {
				all[v] = true
			}
			for _, v := range page.Nodes {
				if !all[v] {
					t.Fatalf("page contains unknown node %q", v)
				}
			}

			// limit=0 means unlimited.
			var unlimited nodesResponse
			getJSON(t, ts.URL+"/nodes?limit=0", &unlimited)
			if len(unlimited.Nodes) != 40 || unlimited.Truncated {
				t.Fatalf("limit=0 = %d nodes, truncated %v", len(unlimited.Nodes), unlimited.Truncated)
			}
		})
	}
}

func TestNodesBadLimit(t *testing.T) {
	_, ts := newIngestServer(t, Options{})
	for _, raw := range []string{"-1", "x", "1.5"} {
		resp, err := http.Get(ts.URL + "/nodes?limit=" + raw)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=%s: status %d, want 400", raw, resp.StatusCode)
		}
	}
}
