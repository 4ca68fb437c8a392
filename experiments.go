package cxl2sim

import (
	"io"

	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/internal/ycsb"
)

// The experiment helpers the commands call outside the section registry
// (jobs.go): the Fig. 6 CSV exporter, the YCSB workload list, and the
// infer section's trace recorder.

// Fig6Row is one point of Fig. 6 (transfer-size sweep, CXL vs PCIe).
type Fig6Row = experiments.Fig6Row

// WriteFig6CSV renders Fig. 6 rows as CSV for external plotting.
func WriteFig6CSV(w io.Writer, rows []Fig6Row) error { return experiments.WriteFig6CSV(w, rows) }

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
