package main

import "sort"

// The host this benchmark runs on is shared: for minutes at a time its
// cores run 20-40% slower, and raw job times drift with them. To cancel that
// drift the measured loop times a fixed reference computation after every
// job, and each job's time is scaled by the reference's nominal time over
// its median time around that job. The reference is benchmark code,
// identical on every commit being compared, so a change to the simulator
// moves the scaled timings and never the scale.

// refNominalMs is the reference loop's median time on the 2-vCPU x86-64 VM
// the bounds in BENCHMARK.json were measured on, in a quiet period: on that
// host the scaled and raw timings agree when nothing else is running.
const refNominalMs = 0.030

// refWindow is how many reference samples on each side of a job enter its
// local median: wide enough to outvote a sample hit by an interrupt, narrow
// enough to follow the host through a slow phase within one run.
const refWindow = 5

// refSink keeps the reference loop's result live; refCode is a variable so
// the compiler cannot specialize the loop to it.
var (
	refSink uint64
	refCode = []byte{0, 1, 2, 3, 1, 0, 2, 3, 4}
)

// hostRef is the reference computation: a small switch-dispatched bytecode
// loop, the same shape as the simulator's instruction dispatch, that touches
// no memory beyond its registers and allocates nothing.
func hostRef() uint64 {
	var a, b uint64 = 0xACE1, 1
	for i := 0; i < 2000; i++ {
		for _, op := range refCode {
			switch op {
			case 0:
				a = a>>1 ^ (-(a & 1) & 0xB400)
			case 1:
				b += a
			case 2:
				b ^= b << 7
			case 3:
				a += b & 3
			case 4:
				if a&1 == 0 {
					b++
				}
			}
		}
	}
	return a + b
}

// scaleToNominal returns each job time at nominal host speed: divided by the
// median of the reference times of the jobs within refWindow of it, over
// refNominalMs. jobMs[i] and refMs[i] belong to the same job, in run order.
func scaleToNominal(jobMs, refMs []float64) []float64 {
	out := make([]float64, len(jobMs))
	near := make([]float64, 0, 2*refWindow+1)
	for i := range jobMs {
		near = append(near[:0], refMs[max(0, i-refWindow):min(len(refMs), i+refWindow+1)]...)
		sort.Float64s(near)
		out[i] = jobMs[i] * refNominalMs / percentile(near, 0.5)
	}
	return out
}
