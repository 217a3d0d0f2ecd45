package asyncgraph

import "testing"

// TestGraphGrowth: appending nodes and edges one at a time reallocates
// each backing array only a logarithmic number of times (capacity
// doubles), and Reset keeps the grown capacity for the next run.
func TestGraphGrowth(t *testing.T) {
	const n = 100_000
	g := NewGraph()
	nodeGrows, edgeGrows := 0, 0
	for i := 0; i < n; i++ {
		c := cap(g.Nodes)
		g.addNode(&Node{Kind: CE})
		if cap(g.Nodes) != c {
			nodeGrows++
		}
	}
	for i := 0; i < n; i++ {
		c := cap(g.Edges)
		g.AddEdge(NodeID(i), NodeID((i+1)%n), EdgeDirect, "")
		if cap(g.Edges) != c {
			edgeGrows++
		}
	}
	if nodeGrows > 12 || edgeGrows > 12 {
		t.Errorf("%d nodes and %d edges reallocated Nodes %d and Edges %d times, want at most 12 each",
			n, n, nodeGrows, edgeGrows)
	}
	nodeCap, edgeCap := cap(g.Nodes), cap(g.Edges)
	g.Reset()
	if len(g.Nodes) != 0 || len(g.Edges) != 0 {
		t.Fatalf("Reset left %d nodes and %d edges", len(g.Nodes), len(g.Edges))
	}
	if cap(g.Nodes) != nodeCap || cap(g.Edges) != edgeCap {
		t.Errorf("Reset changed capacity: nodes %d → %d, edges %d → %d",
			nodeCap, cap(g.Nodes), edgeCap, cap(g.Edges))
	}
}
