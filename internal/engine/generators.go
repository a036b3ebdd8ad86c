package engine

import (
	"fmt"
	"math/rand"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// PoissonGen wraps the paper's Section 5.2.1 workload model.
type PoissonGen struct {
	Cfg workload.PoissonConfig
}

// Name implements Generator.
func (g PoissonGen) Name() string {
	return fmt.Sprintf("poisson(m=%d,M=%.3g,T=%d)", g.Cfg.Ports, g.Cfg.M, g.Cfg.T)
}

// Generate implements Generator.
func (g PoissonGen) Generate(rng *rand.Rand) *switchnet.Instance { return g.Cfg.Generate(rng) }

// PermutationGen wraps the permutation-traffic pattern: one random perfect
// matching of the ports per round.
type PermutationGen struct {
	// Ports is the switch size m; T the number of rounds.
	Ports, T int
}

// Name implements Generator.
func (g PermutationGen) Name() string { return fmt.Sprintf("permutation(m=%d,T=%d)", g.Ports, g.T) }

// Generate implements Generator.
func (g PermutationGen) Generate(rng *rand.Rand) *switchnet.Instance {
	return workload.Permutation(rng, g.Ports, g.T)
}

// HotspotGen wraps the skewed incast pattern: a fraction Hot of flows
// target output port 0.
type HotspotGen struct {
	Ports  int
	Lambda float64
	T      int
	Hot    float64
}

// Name implements Generator.
func (g HotspotGen) Name() string {
	return fmt.Sprintf("hotspot(m=%d,l=%.3g,T=%d,hot=%.2f)", g.Ports, g.Lambda, g.T, g.Hot)
}

// Generate implements Generator.
func (g HotspotGen) Generate(rng *rand.Rand) *switchnet.Instance {
	return workload.Hotspot(rng, g.Ports, g.Lambda, g.T, g.Hot)
}

// Fig4aGen wraps the deterministic Lemma 5.1 online lower-bound gadget.
type Fig4aGen struct {
	T, M int
}

// Name implements Generator.
func (g Fig4aGen) Name() string { return fmt.Sprintf("fig4a(T=%d,M=%d)", g.T, g.M) }

// Generate implements Generator.
func (g Fig4aGen) Generate(*rand.Rand) *switchnet.Instance { return workload.Fig4a(g.T, g.M) }

// FixedGen serves one pre-built instance regardless of seed — for replaying
// traces and JSON instances through the engine.
type FixedGen struct {
	Label string
	Inst  *switchnet.Instance
}

// Name implements Generator.
func (g FixedGen) Name() string {
	if g.Label != "" {
		return g.Label
	}
	return "fixed"
}

// Generate implements Generator. The instance is cloned so solvers can
// never alias each other's input.
func (g FixedGen) Generate(*rand.Rand) *switchnet.Instance { return g.Inst.Clone() }

// Generators returns the default workload registry at the given scale:
// uniform Poisson traffic at load M=m, permutation traffic, and an incast
// hotspot — three qualitatively different patterns.
func Generators(ports, T int) []Generator {
	return []Generator{
		PoissonGen{Cfg: workload.PoissonConfig{M: float64(ports), T: T, Ports: ports}},
		PermutationGen{Ports: ports, T: T},
		HotspotGen{Ports: ports, Lambda: float64(ports), T: T, Hot: 0.5},
	}
}
