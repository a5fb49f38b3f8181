package linkgram

import (
	"container/heap"
	"math"
)

// WeightFunc assigns a distance weight to a link label. The paper: "each
// edge can be weighted against the type of link according to the
// application."
type WeightFunc func(label string) float64

// DefaultWeights weights every structural link 1 and coordination links
// (CO, CC — hops across commas and conjunctions into a different phrase)
// 2, so that a number is always graph-closer to the feature keyword of
// its own phrase than to one in a neighbouring phrase.
func DefaultWeights(label string) float64 {
	switch label {
	case "CO", "CC": // coordination links (connNames[cCO], connNames[cCC])
		return 2
	default:
		return 1
	}
}

// Graph is the weighted undirected view of a linkage.
type Graph struct {
	n   int
	adj [][]edge
}

type edge struct {
	to int
	w  float64
}

// Graph converts the linkage into a weighted graph over its parse words.
// A nil weight function selects DefaultWeights.
func (lk *Linkage) Graph(weight WeightFunc) *Graph {
	if weight == nil {
		weight = DefaultWeights
	}
	g := &Graph{n: len(lk.Words), adj: make([][]edge, len(lk.Words))}
	for _, l := range lk.Links {
		w := weight(l.Label)
		g.adj[l.Left] = append(g.adj[l.Left], edge{to: l.Right, w: w})
		g.adj[l.Right] = append(g.adj[l.Right], edge{to: l.Left, w: w})
	}
	return g
}

// ShortestFrom returns the shortest distance from src to every parse word
// (Dijkstra). Unreachable words get +Inf.
func (g *Graph) ShortestFrom(src int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	pq := &distHeap{{node: src, d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distItem{node: e.to, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	node int
	d    float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
