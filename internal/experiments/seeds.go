package experiments

// Seed registry: every random stream the experiment drivers draw is rooted
// here and built through the rng package, so one file answers "where does
// this experiment's randomness come from". The numeric values are part of
// the calibration — the calibration tests pin medians produced under these
// exact streams — so changing one is a recalibration event, not a refactor.
const (
	// SeedTable4Page generates the representative 70%-compressible page of
	// the Table 4 latency breakdown.
	SeedTable4Page int64 = 4
)

// Fig. 8's end-to-end runs take one seed per (feature, workload) group,
// which Fig8Jobs derives from the root seed and the baseline and all four
// backends share, and derive the independent streams at fixed offsets:
// keeping the offsets distinct keeps the YCSB key stream, the Poisson
// arrival stream, the antagonist's churn and the page-content stream
// decorrelated.
const (
	seedOffFig8LoadGen    int64 = 1 // request arrivals (kvs load generator)
	seedOffFig8Pages      int64 = 3 // synthetic page contents
	seedOffFig8Antagonist int64 = 7 // memory-churn co-runner
)
