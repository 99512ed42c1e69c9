// Package cluster implements cluster_seeds, the second most expensive
// critical function in Giraffe's mapping pipeline (11.6%–21% of runtime in
// the paper's characterisation, §IV-A): it groups a read's seeds by minimum
// graph distance and scores each group so the extension stage can
// concentrate on the most promising regions of the pangenome.
package cluster

import (
	"cmp"
	"slices"

	"repro/internal/counters"
	"repro/internal/seeds"
	"repro/internal/snarl"
)

// Params tunes the clustering kernel.
type Params struct {
	// DistanceLimit is the maximum graph distance (bases) between two seeds
	// in the same cluster. Giraffe derives it from the read length; the
	// synthetic workloads default to 200.
	DistanceLimit int
	// CheckWindow bounds how many backbone-sorted neighbours each seed is
	// compared against; seeds further apart in backbone order than this are
	// connected transitively if at all.
	CheckWindow int
}

// DefaultParams mirrors Giraffe's short-read defaults at this scale.
func DefaultParams() Params { return Params{DistanceLimit: 200, CheckWindow: 6} }

// normalize fills zero fields with defaults so a zero Params means "Giraffe
// defaults", matching extend.Params behaviour.
func (p Params) normalize() Params {
	d := DefaultParams()
	if p.DistanceLimit == 0 {
		p.DistanceLimit = d.DistanceLimit
	}
	if p.CheckWindow == 0 {
		p.CheckWindow = d.CheckWindow
	}
	return p
}

// Cluster is one group of distance-consistent seeds.
type Cluster struct {
	// SeedIdx are indices into the read's seed slice, ascending.
	SeedIdx []int
	// Score is the sum, over distinct read offsets in the cluster, of the
	// best minimizer score at that offset — Giraffe's cluster score.
	Score float64
}

// unionFind is a standard path-halving union-find over caller-supplied
// storage.
type unionFind struct {
	parent []int
}

func (u unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// Scratch is the working memory of ClusterSeeds, reused across reads by one
// caller at a time: the sort order, backbone coordinates, union-find parents
// and the root grouping (of which every cluster's SeedIdx is a window) share
// one int buffer, the clusters themselves are a second. The zero value is
// ready to use.
//
// Ownership: the slice a Scratch's ClusterSeeds returns, and each SeedIdx in
// it, alias the scratch and are valid until the next call on it. Callers
// that keep clusters across reads use the package-level ClusterSeeds.
type Scratch struct {
	ints []int
	out  []Cluster
}

// ClusterSeeds groups the seeds of one read into memory the caller owns: it
// runs Scratch.ClusterSeeds on a fresh scratch that it then lets go of.
func ClusterSeeds(t *snarl.Tree, ss []seeds.Seed, p Params, probe counters.Probe, readIdx int) []Cluster {
	var s Scratch
	return s.ClusterSeeds(t, ss, p, probe, readIdx)
}

// ClusterSeeds groups the seeds of one read. readIdx identifies the read for
// the instrumentation address map; probe may be nil. The result aliases the
// scratch (see Scratch).
//
// The algorithm sorts seeds by orientation and projected backbone
// coordinate, then unions each seed with its nearby neighbours whenever
// their exact graph distance is within the limit. Same-orientation seeds
// only: a forward and a reverse seed never share a cluster.
//
//minigiraffe:hot
func (s *Scratch) ClusterSeeds(t *snarl.Tree, ss []seeds.Seed, p Params, probe counters.Probe, readIdx int) []Cluster {
	p = p.normalize()
	n := len(ss)
	if n == 0 {
		return nil
	}
	if len(s.ints) < 4*n {
		s.ints = make([]int, 4*n)
	}
	order, coord := s.ints[:n], s.ints[n:2*n]
	uf := unionFind{parent: s.ints[2*n : 3*n]}
	byRoot := s.ints[3*n : 4*n]

	g := t.Graph()
	// Sort seed indices by (orientation, backbone coordinate).
	for i := range ss {
		order[i] = i
		coord[i] = int(g.Backbone(ss[i].Pos.Node)) + int(ss[i].Pos.Off)
		uf.parent[i] = i
	}
	slices.SortFunc(order, func(ia, ib int) int {
		if ss[ia].Rev != ss[ib].Rev {
			if ss[ib].Rev {
				return -1
			}
			return 1
		}
		if coord[ia] != coord[ib] {
			return cmp.Compare(coord[ia], coord[ib])
		}
		return cmp.Compare(ia, ib)
	})
	if probe != nil {
		// Sorting cost and one touch per seed record.
		probe.Instr(int64(len(ss)) * 24)
		for i := range ss {
			probe.Access(counters.SeedAddr(readIdx, i), counters.SeedSize)
		}
	}

	for a := 0; a < len(order); a++ {
		i := order[a]
		for b := a + 1; b < len(order) && b <= a+p.CheckWindow; b++ {
			j := order[b]
			if ss[i].Rev != ss[j].Rev {
				break // orientation groups are contiguous in the sort
			}
			if coord[j]-coord[i] > p.DistanceLimit {
				break // sorted by coordinate: later neighbours only farther
			}
			if probe != nil {
				probe.Instr(40)
				probe.Access(counters.NodeSeqAddr(uint32(ss[i].Pos.Node), 0), 8)
				probe.Access(counters.NodeSeqAddr(uint32(ss[j].Pos.Node), 0), 8)
			}
			d := t.MinDistance(ss[i].Pos, ss[j].Pos)
			if d != snarl.Unreachable && d <= p.DistanceLimit {
				uf.union(i, j)
			}
		}
	}

	// Collect clusters and score them. Ordering seed indices by union-find
	// root (ties by index) makes every cluster one contiguous run, so the
	// per-read map the grouping used to allocate is unnecessary and each
	// SeedIdx is a window of the sorted indices, ascending for free.
	nGroups := 0
	for i := range byRoot {
		byRoot[i] = i
		if uf.find(i) == i {
			nGroups++
		}
	}
	slices.SortFunc(byRoot, func(a, b int) int {
		if ra, rb := uf.find(a), uf.find(b); ra != rb {
			return cmp.Compare(ra, rb)
		}
		return cmp.Compare(a, b)
	})
	if len(s.out) < nGroups {
		s.out = make([]Cluster, nGroups)
	}
	out := s.out[:nGroups]
	k := 0
	for lo := 0; lo < n; {
		root := uf.find(byRoot[lo])
		hi := lo + 1
		for hi < n && uf.find(byRoot[hi]) == root {
			hi++
		}
		// Capacity-clipped, so an append by the caller cannot run into the
		// next cluster's indices.
		members := byRoot[lo:hi:hi]
		out[k] = Cluster{SeedIdx: members, Score: scoreCluster(ss, members)}
		k++
		lo = hi
	}
	// Deterministic order: score descending, then first seed index.
	slices.SortFunc(out, func(a, b Cluster) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.SeedIdx[0], b.SeedIdx[0])
	})
	if probe != nil {
		probe.Instr(int64(len(out)) * 16)
	}
	return out
}

// scoreCluster sums the best minimizer score per distinct read offset.
// Clusters hold a handful of seeds, so an O(n²) scan beats allocating a
// per-cluster map — and unlike map iteration, the float accumulation order
// is deterministic.
func scoreCluster(ss []seeds.Seed, idxs []int) float64 {
	total := 0.0
	for a, i := range idxs {
		off, sc := ss[i].ReadOff, float64(ss[i].Score)
		best := true
		for b, j := range idxs {
			if b == a || ss[j].ReadOff != off {
				continue
			}
			if sj := float64(ss[j].Score); sj > sc || (sj == sc && b < a) {
				best = false
				break
			}
		}
		if best {
			total += sc
		}
	}
	return total
}
