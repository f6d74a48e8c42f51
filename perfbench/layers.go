package main

// perLayer fills the per-layer metrics measured around the traced
// window: tr is the traced window, warm the last set-up's warm-up (a
// fixed, seed-determined op set, so the sim.* counts repeat exactly at
// a fixed seed), sh the window's CPU profile by layer and rt the Go
// runtime counters over the window.
func perLayer(m metrics, tr, warm window, sh shares, rt runtimeSnapshot) {
	o := tr.out
	shots := float64(o.shots)
	m.set("eqasm.job_overhead_us", ratio(float64(o.overheadNs), float64(o.runs))/1e3, "us")
	m.set("eqasm.stabilizer_shot_frac", ratio(float64(o.stabShots), shots), "fraction")
	m.set("core.shot_us", ratio(float64(o.execNs), shots)/1e3, "us")
	m.set("microarch.ns_per_instr", ratio(sh.ns["microarch"], float64(o.stats.Instructions)), "ns/instr")
	m.set("quantum.kernel_apps_per_shot", ratio(float64(o.kernelApps), shots), "count/shot")
	m.set("plan.fused_site_frac", ratio(float64(o.fusedSites), float64(o.totalSites)), "fraction")
	m.set("mix.feedback_shot_frac", ratio(float64(o.feedbackShots), shots), "fraction")
	for _, l := range cpuLayers {
		m.set(l+".cpu_frac", sh.frac(l), "fraction")
	}

	w := warm.out
	wshots := float64(w.shots)
	m.set("sim.instrs_per_shot", ratio(float64(w.stats.Instructions), wshots), "count/shot")
	m.set("sim.qops_per_shot", ratio(float64(w.stats.QuantumOps), wshots), "count/shot")
	m.set("sim.chip_ns_per_shot", ratio(float64(w.stats.DurationNs), wshots), "ns/shot")
	m.set("sim.cancelled_ops_per_shot", ratio(float64(w.stats.CancelledOps), wshots), "count/shot")
	m.set("sim.fmr_stall_ticks_per_shot", ratio(float64(w.stats.FMRStallTicks), wshots), "count/shot")

	ops := float64(tr.attempted)
	m.set("runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU-rt.idleCPU), "fraction")
	m.set("runtime.alloc_bytes_per_op", ratio(rt.allocBytes, ops), "B/op")
	m.set("runtime.gc_cycles_per_kop", ratio(rt.gcCycles*1000, ops), "count/kop")
}
