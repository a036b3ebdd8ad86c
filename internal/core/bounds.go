package core

import (
	"cmp"
	"slices"
	"sort"

	"flowsched/internal/switchnet"
)

// SRPTLowerBound computes a combinatorial lower bound on the total response
// time of any schedule by relaxing the instance to independent single-port
// preemptive machines: for each port, the flows incident on it are
// scheduled by shortest-remaining-processing-time with the port's capacity
// as a fluid per-round budget (optimal for mean flow time on one machine).
// Any valid switch schedule induces a feasible processing pattern on every
// port, so the maximum of the input-side and output-side totals (and the
// trivial bound n, one round per flow) is a valid lower bound. It is far
// cheaper than the LP bound and is used at scales where LP (1)-(4) is too
// large, mirroring the paper's note that LP runs dominated experiment time.
func SRPTLowerBound(inst *switchnet.Instance) int {
	n := inst.N()
	if n == 0 {
		return 0
	}
	inTotal := 0
	outTotal := 0
	for side := 0; side < 2; side++ {
		var numPorts int
		if side == 0 {
			numPorts = inst.Switch.NumIn()
		} else {
			numPorts = inst.Switch.NumOut()
		}
		byPort := make([][]int, numPorts)
		for f, e := range inst.Flows {
			if side == 0 {
				byPort[e.In] = append(byPort[e.In], f)
			} else {
				byPort[e.Out] = append(byPort[e.Out], f)
			}
		}
		for port, flows := range byPort {
			var cap int
			if side == 0 {
				cap = inst.Switch.InCaps[port]
			} else {
				cap = inst.Switch.OutCaps[port]
			}
			total := srptPort(inst, flows, cap)
			if side == 0 {
				inTotal += total
			} else {
				outTotal += total
			}
		}
	}
	best := n
	if inTotal > best {
		best = inTotal
	}
	if outTotal > best {
		best = outTotal
	}
	return best
}

// srptPort simulates fluid SRPT on a single port with the given per-round
// capacity and returns the total response time of the flows.
func srptPort(inst *switchnet.Instance, flows []int, cap int) int {
	if len(flows) == 0 {
		return 0
	}
	order := append([]int(nil), flows...)
	sort.Slice(order, func(a, b int) bool {
		return inst.Flows[order[a]].Release < inst.Flows[order[b]].Release
	})
	type job struct {
		release int
		remain  int
	}
	jobs := make([]job, len(order))
	for i, f := range order {
		jobs[i] = job{release: inst.Flows[f].Release, remain: inst.Flows[f].Demand}
	}
	total := 0
	done := 0
	next := 0 // next job (by release) not yet arrived
	active := []int{}
	t := jobs[0].release
	for done < len(jobs) {
		for next < len(jobs) && jobs[next].release <= t {
			active = append(active, next)
			next++
		}
		if len(active) == 0 {
			t = jobs[next].release
			continue
		}
		budget := cap
		for budget > 0 && len(active) > 0 {
			// Smallest remaining first.
			best := 0
			for i := 1; i < len(active); i++ {
				if jobs[active[i]].remain < jobs[active[best]].remain {
					best = i
				}
			}
			j := active[best]
			work := budget
			if jobs[j].remain < work {
				work = jobs[j].remain
			}
			jobs[j].remain -= work
			budget -= work
			if jobs[j].remain == 0 {
				total += t + 1 - jobs[j].release
				done++
				active = append(active[:best], active[best+1:]...)
			}
		}
		t++
	}
	return total
}

// TrivialMRTLowerBound returns a cheap lower bound on the maximum response
// time: the per-port backlog bound max_p ceil(peak simultaneous load / cap)
// restricted to release-time prefixes, and at least 1.
func TrivialMRTLowerBound(inst *switchnet.Instance) int {
	ws := getWorkspace()
	defer ws.put()
	return ws.trivialMRTLowerBound(inst)
}

// portEvent is a flow as TrivialMRTLowerBound sees it at one of its ports.
type portEvent struct{ release, demand int }

// trivialMRTLowerBound is TrivialMRTLowerBound in ws's memory.
func (ws *workspace) trivialMRTLowerBound(inst *switchnet.Instance) int {
	if inst.N() == 0 {
		return 0
	}
	best := 1
	// For any port p and any release time r, the flows of port p released
	// at or after r that must finish by r + rho give
	// rho >= load/(cap) - (their spread); use the simplest prefix form:
	// flows released in [r, r'] need (sum demands)/cap rounds, so
	// rho >= ceil(load / cap) - (r' - r). Each flow is an event at both its
	// ports; counting places every port's events in one run of one slice,
	// and each run is sorted by release. The order among equal releases
	// does not matter: a window holding every tie at both its ends
	// dominates one that holds only some.
	numPorts := inst.Switch.NumPorts()
	next := zeroed(ws.eventNext, numPorts+1) // where port p's next event goes
	ws.eventNext = next
	for _, e := range inst.Flows {
		next[inst.Switch.PortIndex(switchnet.In, e.In)+1]++
		next[inst.Switch.PortIndex(switchnet.Out, e.Out)+1]++
	}
	for p := range numPorts {
		next[p+1] += next[p]
	}
	evs := grow(ws.events, 2*inst.N())
	ws.events = evs
	for _, e := range inst.Flows {
		for _, p := range [2]int{inst.Switch.PortIndex(switchnet.In, e.In), inst.Switch.PortIndex(switchnet.Out, e.Out)} {
			evs[next[p]] = portEvent{e.Release, e.Demand}
			next[p]++
		}
	}
	// Port p's run now ends at next[p], where port p+1's begins.
	lo := 0
	for p := range numPorts {
		port := evs[lo:next[p]]
		lo = next[p]
		slices.SortFunc(port, func(a, b portEvent) int { return cmp.Compare(a.release, b.release) })
		cap := inst.Switch.Cap(p)
		for i := range port {
			load := 0
			for j := i; j < len(port); j++ {
				load += port[j].demand
				spread := port[j].release - port[i].release
				if rho := (load+cap-1)/cap - spread; rho > best {
					best = rho
				}
			}
		}
	}
	return best
}
