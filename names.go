package cxl2sim

// Canonical name tables for the §V microbenchmark vocabulary, which
// dist.Spec parses measurement requests with on every process: a request
// the coordinator accepted is, by construction, one every worker can
// rebuild.

// D2HOpNames maps the paper's D2H/D2D access names to request hints.
var D2HOpNames = map[string]D2HReq{
	"NC-P": NCP, "NC-rd": NCRead, "NC-wr": NCWrite,
	"CO-rd": CORead, "CO-wr": COWrite, "CS-rd": CSRead,
}

// HostOpNames maps the host-side access names to operations.
var HostOpNames = map[string]HostOp{
	"ld": Ld, "nt-ld": NtLd, "st": St, "nt-st": NtSt,
}

// PlacementNames maps the cache-priming names (§V methodology) to
// placements.
var PlacementNames = map[string]Placement{
	"cold": PlaceCold, "LLC-1": PlaceLLC,
	"HMC-1": PlaceHMC, "DMC-1": PlaceDMC,
}
