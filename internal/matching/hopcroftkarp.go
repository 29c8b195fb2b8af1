// Package matching implements the bipartite-matching algorithms referenced
// by the paper's intra-application analysis (§IV-B): maximum-cardinality
// matching (Hopcroft–Karp) for task-level locality bounds, and
// maximum-weight assignment (Hungarian) as the exact comparator for
// constrained bipartite matching.
package matching

// HopcroftKarp computes a maximum-cardinality matching in a bipartite graph
// with nLeft left vertices and nRight right vertices. adj[u] lists the right
// vertices adjacent to left vertex u. It returns matchL (left → right, -1 if
// unmatched) and the matching size. Runs in O(E·sqrt(V)).
func HopcroftKarp(nLeft, nRight int, adj [][]int) (matchL []int, size int) {
	matchL = make([]int, nLeft)
	matchR := make([]int, nRight)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, nLeft)
	queue := make([]int, 0, nLeft)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < nLeft; u++ {
			if matchL[u] == -1 {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range adj[u] {
				w := matchR[v]
				if w == -1 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		for _, v := range adj[u] {
			w := matchR[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for u := 0; u < nLeft; u++ {
			if matchL[u] == -1 && dfs(u) {
				size++
			}
		}
	}
	return matchL, size
}
