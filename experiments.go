package cxl2sim

import (
	"io"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/workload"
	"repro/internal/ycsb"
)

// The experiment drivers the commands call outside the section registry
// (jobs.go): Table IV and Fig. 8 for kvsbench, the Fig. 6 CSV exporter, and
// the infer section's trace recorder.

// Fig6Row is one point of Fig. 6 (transfer-size sweep, CXL vs PCIe).
type Fig6Row = experiments.Fig6Row

// WriteFig6CSV renders Fig. 6 rows as CSV for external plotting.
func WriteFig6CSV(w io.Writer, rows []Fig6Row) error { return experiments.WriteFig6CSV(w, rows) }

// Table4Row is one row of Table IV (offload latency breakdown).
type Table4Row = experiments.Table4Row

// RunTable4 measures the zswap compression-offload breakdown per backend.
func RunTable4() []Table4Row {
	return experiments.Rows[Table4Row](runner.Run(experiments.Table4Jobs(), runner.Options{Workers: 1}))
}

// PrintTable4 renders Table IV.
func PrintTable4(w io.Writer, rows []Table4Row) { experiments.PrintTable4(w, rows) }

// Fig8Row is one bar of Fig. 8 (Redis p99 under kernel-feature variants).
type Fig8Row = experiments.Fig8Row

// Fig8Config tunes the co-simulation (zero values take the calibrated
// 300 ms horizon and seed). The request rate is not a knob: every run
// offers the calibrated 60k ops/s.
type Fig8Config = experiments.Fig8Config

// RunFig8 runs one feature ("zswap" or "ksm") across the baseline and all
// four backends for the given workloads (nil = all of A–D).
func RunFig8(feature string, workloads []Workload, cfg Fig8Config) []Fig8Row {
	return experiments.Fig8(feature, workloads, cfg)
}

// PrintFig8 renders Fig. 8 rows.
func PrintFig8(w io.Writer, rows []Fig8Row) { experiments.PrintFig8(w, rows) }

// InferConfig tunes the serving experiment (zero values take the default
// 48-request runs with the section seed derived from the root seed).
type InferConfig = experiments.InferConfig

// Workloads lists the YCSB core workloads A–D.
func Workloads() []Workload { return ycsb.Workloads() }

// WorkloadTrace is a recorded request stream in the versioned binary trace
// format: freeze any synthetic or captured stream once, replay it
// bit-for-bit across policies, worker counts and binary versions.
type WorkloadTrace = workload.Trace

// RecordInferTrace records the request stream the infer section serves
// under rootSeed and cfg — replay the result through the infer section
// (InferConfig.Trace, or a section Spec carrying the encoded trace) to
// reproduce the runs exactly.
func RecordInferTrace(rootSeed int64, cfg InferConfig) *WorkloadTrace {
	return experiments.InferTrace(rootSeed, cfg)
}
