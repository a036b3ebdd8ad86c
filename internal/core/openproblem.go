package core

import "flowsched/internal/switchnet"

// OpenProblemProbe empirically explores the open question of Section 6:
// for a "smooth" sequence of unit flows (interval degree at most |I|+1 at
// every port), what uniform maximum response time rho is achievable
// WITHOUT capacity augmentation? It returns the smallest rho for which an
// exact (backtracking) schedule exists, searching up to maxRho; -1 means
// no schedule with rho <= maxRho was found.
//
// The paper conjectures a constant suffices; the probe gathers evidence
// (TestSmoothSequencesScheduleWithSmallRho keeps it below 5).
//
//flowsched:testonly TestSmoothSequencesScheduleWithSmallRho's probe until ROADMAP 7a's open artifact runs it
func OpenProblemProbe(inst *switchnet.Instance, maxRho int) int {
	for rho := 1; rho <= maxRho; rho++ {
		if ExactMRTFeasible(inst, rho) {
			return rho
		}
	}
	return -1
}
