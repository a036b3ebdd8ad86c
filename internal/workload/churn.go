package workload

import (
	"fmt"
	"math/rand"

	"flowsched/internal/switchnet"
)

// ChurnConfig describes the adversarial VOQ-churn arrival process used by
// the fairness regression tests: every round a fixed number of unit flows
// arrives on random (input, output) pairs of an Ins x Outs switch, so
// virtual output queues constantly drain and refill — the access pattern
// that swap-delete-reorders the runtime's active-VOQ lists and stresses
// rotation-pointer and age-weighted fairness state. Optionally the first
// HotOuts outputs also receive one flow from input 0 every round: a
// persistently backlogged VOQ a fair policy must keep serving while the
// rest of the port space churns (the starvation probe).
type ChurnConfig struct {
	// Ins and Outs are the switch dimensions (Ins defaults to 1: the
	// single-input shape fairness invariants are easiest to replay).
	Ins, Outs int
	// PerRound is how many churn flows arrive each round (default 2).
	PerRound int
	// HotOuts pins outputs 0..HotOuts-1 hot: each receives one extra
	// flow from input 0 every round (0 = no hot outputs).
	HotOuts int
	// MaxFlows ends the stream after that many flows (0 = unbounded).
	MaxFlows int64
}

// ChurnSource streams the churn process. It is deterministic given the
// rng seed, so a test can replay the exact flow sequence from a second
// instance.
type ChurnSource struct {
	Seq
	cfg ChurnConfig
	rng *rand.Rand
	err error
}

// NewChurnSource returns a source drawing from cfg with rng. With Ins ==
// 1 the input draw is skipped, so the output sequence depends only on the
// seed and PerRound.
//
//flowsched:testonly workload's TestChurnSource*, TestSourceConformance and TestSourceSequencesGolden, and stream's TestNativeScheduleGolden, TestWeightedISLIPServesOldestHeadUnderChurn and TestRoundRobinMatchesUnmaskedReference draw from it
func NewChurnSource(cfg ChurnConfig, rng *rand.Rand) *ChurnSource {
	if cfg.Ins <= 0 {
		cfg.Ins = 1
	}
	if cfg.PerRound <= 0 {
		cfg.PerRound = 2
	}
	s := &ChurnSource{Seq: NewSeq(ended), cfg: cfg, rng: rng}
	if cfg.Outs <= 0 || cfg.HotOuts > cfg.Outs {
		s.err = fmt.Errorf("workload: churn source needs Outs > 0 and HotOuts <= Outs (got %d, %d)", cfg.Outs, cfg.HotOuts)
		return s
	}
	s.Seq = generated(cfg.MaxFlows, s.fillRound)
	return s
}

// Switch returns the unit-capacity switch the source's flows are drawn
// for.
func (s *ChurnSource) Switch() switchnet.Switch {
	return switchnet.NewSwitch(s.cfg.Ins, s.cfg.Outs, 1)
}

// Err implements FlowSource.
func (s *ChurnSource) Err() error { return s.err }

// fillRound appends round's arrivals to dst: the hot flows first, then
// the churn draws.
func (s *ChurnSource) fillRound(dst []switchnet.Flow, round int) []switchnet.Flow {
	for h := 0; h < s.cfg.HotOuts; h++ {
		dst = append(dst, switchnet.Flow{In: 0, Out: h, Demand: 1, Release: round})
	}
	for i := 0; i < s.cfg.PerRound; i++ {
		in := 0
		if s.cfg.Ins > 1 {
			in = s.rng.Intn(s.cfg.Ins)
		}
		dst = append(dst, switchnet.Flow{
			In:      in,
			Out:     s.rng.Intn(s.cfg.Outs),
			Demand:  1,
			Release: round,
		})
	}
	return dst
}
