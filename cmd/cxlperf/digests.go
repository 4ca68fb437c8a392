package main

// pinnedDigests holds, per workload, the SHA-256 of the reference outputs
// its set-up builds at the default seed and full scale: the suite's
// rendered bytes, the access stream's per-chunk summaries, the cluster
// Metrics rendering, the serve hot-key bodies and the first serve-dist
// bodies. A run prints the digest it built; a change that is meant to
// alter the model's output updates these by hand.
//
// The suite digest is the SHA-256 of `cxlbench -reps 1000 all`'s output,
// so that byte-identity contract is checked here too.
var pinnedDigests = map[string]string{
	"suite":      "83a5d712e7d95072ec76604db525841058a55a9dd196ac32177b8c5cf2c8dfd5",
	"access":     "a11e1c56a899652658c7931cca4e3982865846be553a8896eba46a6db3e12dd5",
	"cluster":    "af6d367091cded4f216ac04fb88d2a1138105703add61d5f988d8580133ec27b",
	"serve":      "1e88878c672433e89606ea52d99d7fe48f4c90f1a934eb6b300e715ffc7412c4",
	"serve-dist": "01d3c9931afc41ca096ec80918cce0ff0e934897b1333a269b28bb562692175c",
}
