package hdfs

// PlacementPolicy chooses the DataNodes that receive a new block's replicas.
type PlacementPolicy interface {
	// Place returns the nodes for a block's replicas. Implementations must
	// return distinct, live nodes and may return fewer than replicas when
	// the cluster has too few live nodes.
	Place(nn *NameNode, b *Block, replicas int) ([]int, error)
	// Name identifies the policy in reports.
	Name() string
}

// RandomPolicy places each replica on a distinct node chosen uniformly at
// random — the paper's baseline configuration ("each data block typically
// has three replicas randomly distributed in the cluster", §II).
type RandomPolicy struct{}

// Name implements PlacementPolicy.
func (RandomPolicy) Name() string { return "random" }

// Place implements PlacementPolicy.
func (RandomPolicy) Place(nn *NameNode, b *Block, replicas int) ([]int, error) {
	exclude := map[int]bool{}
	var out []int
	for len(out) < replicas {
		node, err := nn.pickNode(exclude)
		if err != nil {
			if len(out) > 0 {
				return out, nil // partially placed: under-replicated but usable
			}
			return nil, err
		}
		out = append(out, node)
		exclude[node] = true
	}
	return out, nil
}

// PopularityPolicy implements a Scarlett-style strategy (§VII, [9]): blocks
// of files expected to be popular receive extra replicas, proportionally to
// their popularity weight, so hot data does not concentrate computation on
// three nodes.
type PopularityPolicy struct {
	// Weights maps file name → relative popularity (>= 1). Missing files
	// default to weight 1 (base replication).
	Weights map[string]float64
	// MaxExtra caps the additional replicas per block.
	MaxExtra int
}

// Name implements PlacementPolicy.
func (p *PopularityPolicy) Name() string { return "popularity" }

// Place implements PlacementPolicy.
func (p *PopularityPolicy) Place(nn *NameNode, b *Block, replicas int) ([]int, error) {
	w := 1.0
	if p.Weights != nil {
		if v, ok := p.Weights[b.File]; ok && v > 1 {
			w = v
		}
	}
	// Round half-up so fractional weights earn their extra replicas: the
	// contract is "proportionally to popularity weight", and truncation
	// would give weight 1.9 the same zero extras as weight 1.0.
	extra := int(w+0.5) - 1
	if p.MaxExtra > 0 && extra > p.MaxExtra {
		extra = p.MaxExtra
	}
	return RandomPolicy{}.Place(nn, b, replicas+extra)
}
