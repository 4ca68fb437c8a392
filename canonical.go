package cxl2sim

import (
	"encoding/json"
	"fmt"

	"repro/internal/xxhash"
)

// This file provides canonical serialization for result-cache keys: the
// serving layer (internal/service, cmd/cxlsimd) caches rendered experiment
// output under a key derived from everything the output bytes depend on.
// The runner's determinism guarantee — byte-identical output per
// (config, seed) regardless of worker count or scheduling — is what makes
// these keys sound, so worker counts must never leak into them.

// CanonicalKey renders the Config as a stable, self-delimiting string.
// Two Configs produce equal keys iff NewSystem builds observationally
// identical systems from them: zero-valued fields are normalized by
// withDefaults, the step NewSystem builds from, before rendering, and
// the timing model is folded in as a 64-bit hash of its canonical JSON,
// so a custom parameter file keys distinctly from the calibrated
// defaults while an explicit DefaultParams() keys identically to nil.
func (c Config) CanonicalKey() string {
	c = c.withDefaults()
	pj, err := json.Marshal(c.Params)
	if err != nil {
		// Params is a tree of plain numeric structs; Marshal cannot fail.
		panic(fmt.Sprintf("cxl2sim: marshal params: %v", err))
	}
	return fmt.Sprintf("cfg{params=%016x,type=%d,llc=%d/%d,cores=%d,snc=%t}",
		xxhash.Sum64(pj, 0), c.DeviceType, c.LLCBytes, c.LLCWays, c.Cores, c.SNC)
}
