package cluster

// Router picks the replica a request is dispatched to. Routers see the
// cluster's routing signals (NumReplicas, Load) and may keep state —
// they are single-use: construct a fresh one per Run so replays stay
// deterministic.
type Router interface {
	// Name labels the router in metrics and reports.
	Name() string
	// Route returns the target replica index for r. The cluster reuses
	// *r for the next arrival, so a router must copy any field it keeps.
	Route(r *Request, c *Cluster) int
}

// Request is the routing view of an arriving request: its session
// identity and shape, but not its in-flight state.
type Request struct {
	ID      int
	Session uint32
	Prompt  int
	Decode  int
}

// roundRobin dispatches requests in strict rotation.
type roundRobin struct{ next int }

// NewRoundRobin returns the rotation router.
func NewRoundRobin() Router { return &roundRobin{} }

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Route(_ *Request, c *Cluster) int {
	i := r.next % c.NumReplicas()
	r.next++
	return i
}

// leastLoaded dispatches to the replica with the fewest queued+batched
// requests, ties to the lowest index.
type leastLoaded struct{}

// NewLeastLoaded returns the load-balancing router.
func NewLeastLoaded() Router { return leastLoaded{} }

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Route(_ *Request, c *Cluster) int {
	best, bestLoad := 0, c.Load(0)
	for i := 1; i < c.NumReplicas(); i++ {
		if l := c.Load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// sessionAffinity pins each session to the replica that served it first
// (picked least-loaded on first sight), so a session's KV locality stays
// on one replica — the prefix-cache-friendly policy.
type sessionAffinity struct {
	sticky map[uint32]int
}

// NewSessionAffinity returns the sticky-session router.
func NewSessionAffinity() Router { return &sessionAffinity{sticky: map[uint32]int{}} }

func (*sessionAffinity) Name() string { return "session-affinity" }

func (r *sessionAffinity) Route(req *Request, c *Cluster) int {
	if i, ok := r.sticky[req.Session]; ok {
		return i
	}
	i := leastLoaded{}.Route(req, c)
	r.sticky[req.Session] = i
	return i
}
