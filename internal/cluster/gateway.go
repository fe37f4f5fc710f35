package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service"
	"d2m/internal/service/sched"
)

// Config sizes the gateway. Peers is mandatory; everything else has a
// production-sane default.
type Config struct {
	// Peers is the fixed fleet membership: each entry names one
	// scheduler shard and its base URL. Names key the hash ring, the
	// job-id routing suffix, and log/metric attribution — keep them
	// stable across restarts or warm identities remap away from their
	// accumulated snapshot state.
	Peers []Peer
	// ProbeInterval is the readiness-probe period. Zero means 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe. Zero means 2s.
	ProbeTimeout time.Duration
	// MaxAttempts bounds how many distinct shards one submission may be
	// offered (the ring owner plus failover successors). Zero means 3.
	MaxAttempts int
	// CacheEntries is the gateway result-cache LRU capacity. Zero
	// means 4096.
	CacheEntries int
	// MergeStores lists shard journal paths to replay into the gateway
	// cache at startup (one JSONL journal per shard): a fleet restart
	// then resumes from the union of what any shard completed, even for
	// keys the ring now assigns to a different shard.
	MergeStores []string
	// Logf, when non-nil, receives gateway lifecycle log lines (peer
	// state changes, sweep remaps).
	Logf func(format string, args ...interface{})
	// Client is the HTTP client used for forwarding, probing and
	// following sub-sweep event streams. Nil means a default client with
	// no overall timeout (synchronous runs and sub-sweep streams are
	// legitimately long; cancellation flows through request contexts)
	// on its own transport, which keeps up to idleConnsPerShard idle
	// connections per shard.
	Client *http.Client
}

// idleConnsPerShard sizes the default client's idle pool per shard.
// Every in-flight sub-sweep holds a shard connection for its event
// stream, and concurrent forwards each need one too; the standard
// transport keeps only 2 idle per host, so the rest would be torn down
// and redialed on every burst.
const idleConnsPerShard = 64

// Gateway fronts a fleet of scheduler shards behind the single-server
// v1 API: submissions are consistent-hashed by warm-identity key onto
// shards, responses stream back with job ids rewritten to the routable
// <localid>@<shard> form, and sweeps are expanded once at the gateway
// and fanned out shard-local so snapshot reuse and coalescing never
// split across processes.
type Gateway struct {
	peers         *peerSet
	cache         *resultCache
	client        *http.Client
	mux           *http.ServeMux
	maxAttempts   int
	probeInterval time.Duration
	probeTimeout  time.Duration
	logf          func(string, ...interface{})

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	metrics gatewayMetrics

	mu          sync.Mutex
	sweeps      map[string]*gatewaySweep
	nextSweepID atomic.Uint64

	// compatMu guards compatOK: the per-peer verdict of the one-time
	// API-revision check the prober runs against /v1/capabilities.
	compatMu sync.Mutex
	compatOK map[string]bool
}

// gatewayMetrics are the gateway's own counters, rendered on
// GET /metrics next to the per-shard peer-state gauges.
type gatewayMetrics struct {
	RunsForwarded    atomic.Uint64 // POST /v1/run forwarded to a shard
	BatchesForwarded atomic.Uint64 // sub-batches forwarded to shards
	SweepsAccepted   atomic.Uint64 // fleet sweeps accepted
	CacheHits        atomic.Uint64 // requests served from the gateway cache
	Failovers        atomic.Uint64 // forwards that left the ring owner for a successor
	StoreLoaded      atomic.Uint64 // journal records merged at startup
	CellsRemapped    atomic.Uint64 // sweep cells remapped off a lost or draining shard
	TracesForwarded  atomic.Uint64 // trace uploads fanned out to the fleet
}

// New builds the gateway, merges the configured shard journals into
// its result cache, runs one synchronous probe round (so the first
// request after startup sees real ring membership), and starts the
// background prober.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one peer")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	g := &Gateway{
		peers:         newPeerSet(cfg.Peers),
		cache:         newResultCache(cfg.CacheEntries),
		client:        cfg.Client,
		maxAttempts:   cfg.MaxAttempts,
		probeInterval: cfg.ProbeInterval,
		probeTimeout:  cfg.ProbeTimeout,
		logf:          cfg.Logf,
		sweeps:        make(map[string]*gatewaySweep),
		compatOK:      make(map[string]bool),
	}
	if g.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = idleConnsPerShard
		g.client = &http.Client{Transport: tr}
	}
	if g.logf == nil {
		g.logf = func(string, ...interface{}) {}
	}
	for _, path := range cfg.MergeStores {
		recs, err := service.ReplayJournal(path)
		if err != nil {
			return nil, fmt.Errorf("cluster: merge store %s: %w", path, err)
		}
		for _, rec := range recs {
			g.cache.put(rec.Key, rec)
		}
		g.metrics.StoreLoaded.Add(uint64(len(recs)))
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	g.probeAll(g.ctx)
	g.wg.Add(1)
	go g.prober()

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/run", g.handleRun)
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("GET /v1/jobs", g.handleJobs)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJobCancel)
	g.mux.HandleFunc("POST /v1/sweeps", g.handleSweepCreate)
	g.mux.HandleFunc("GET /v1/sweeps", g.handleSweeps)
	g.mux.HandleFunc("GET /v1/sweeps/{id}", g.handleSweepGet)
	g.mux.HandleFunc("DELETE /v1/sweeps/{id}", g.handleSweepDelete)
	g.mux.HandleFunc("POST /v1/traces", g.handleTraceUpload)
	g.mux.HandleFunc("GET /v1/traces", g.handleTraceList)
	g.mux.HandleFunc("GET /v1/traces/{id}", g.handleTraceGet)
	g.mux.HandleFunc("GET /v1/traces/{id}/raw", g.handleTraceRaw)
	g.mux.HandleFunc("GET /v1/capabilities", g.handleCapabilities)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// Handler returns the gateway's HTTP handler (the same v1 surface the
// shards serve).
func (g *Gateway) Handler() http.Handler { return g.mux }

// Shutdown stops the prober and abandons outstanding sweep
// orchestration. The shards are not touched: their queued and running
// jobs finish and land in their journals.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.cancel()
	done := make(chan struct{})
	go func() { g.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---------------------------------------------------------------------------
// Forwarding.

// forwardResult is one relayed shard response, buffered so the gateway
// can rewrite job ids before answering the client.
type forwardResult struct {
	status int
	header http.Header
	body   []byte
	peer   Peer
}

// errNoShard is returned when no live shard could take the request.
var errNoShard = fmt.Errorf("cluster: no shard available")

// do issues one forwarded request to a specific peer. apiKey, when
// non-empty, rides along as X-API-Key: with a tenant-configured fleet
// the shard is the authority on admission, so the gateway forwards the
// caller's credential on every hop instead of holding its own registry.
func (g *Gateway) do(ctx context.Context, p Peer, method, path string, body []byte, apiKey string) (forwardResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.URL+path, rd)
	if err != nil {
		return forwardResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return forwardResult{}, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return forwardResult{}, err
	}
	return forwardResult{status: resp.StatusCode, header: resp.Header, body: buf, peer: p}, nil
}

// isDrainingResponse reports whether a shard response is the 503
// draining envelope (as opposed to some other 503).
func isDrainingResponse(fr forwardResult) bool {
	if fr.status != http.StatusServiceUnavailable {
		return false
	}
	var eb api.ErrorBody
	if json.Unmarshal(fr.body, &eb) != nil {
		return false
	}
	return eb.Error.Code == api.ErrDraining
}

// forwardKey routes one request by warm-identity key: the ring owner
// first, then failover successors, at most maxAttempts distinct
// shards. A transport error marks the shard Down; a draining rejection
// marks it Draining; both advance to the next candidate (safe to
// retry: submissions are content-addressed and idempotent). Every
// other response — including 429 with its Retry-After — is relayed
// as-is.
func (g *Gateway) forwardKey(ctx context.Context, key, method, path string, body []byte, apiKey string) (forwardResult, error) {
	for attempt := 0; attempt < g.maxAttempts; attempt++ {
		owners := g.peers.owners(key, g.maxAttempts)
		if len(owners) == 0 {
			return forwardResult{}, errNoShard
		}
		idx := attempt
		if idx >= len(owners) {
			idx = len(owners) - 1
		}
		p := owners[idx]
		if attempt > 0 {
			g.metrics.Failovers.Add(1)
		}
		fr, err := g.do(ctx, p, method, path, body, apiKey)
		if err != nil {
			if ctx.Err() != nil {
				return forwardResult{}, ctx.Err()
			}
			g.peers.setState(p.Name, PeerDown)
			g.logf("peer %s is down (%v)", p.Name, err)
			continue
		}
		if isDrainingResponse(fr) {
			g.peers.setState(p.Name, PeerDraining)
			g.logf("peer %s is draining", p.Name)
			continue
		}
		return fr, nil
	}
	return forwardResult{}, errNoShard
}

// relay writes a buffered shard response through to the client,
// preserving the status and the Retry-After header.
func relay(w http.ResponseWriter, fr forwardResult) {
	if ra := fr.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	ct := fr.header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(fr.status)
	w.Write(fr.body)
}

// ---------------------------------------------------------------------------
// Job-id routing.

// routedID renders a shard-local job id in the gateway's routable
// form, and splitRouted parses it back.
func routedID(local string, p Peer) string { return local + "@" + p.Name }

func splitRouted(id string) (local, peer string, ok bool) {
	i := strings.LastIndexByte(id, '@')
	if i <= 0 || i == len(id)-1 {
		return "", "", false
	}
	return id[:i], id[i+1:], true
}

// ---------------------------------------------------------------------------
// HTTP handlers.

const maxBodyBytes = 4 << 20

func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		api.WriteError(w, api.ErrInvalidRequest, "bad request body: %v", err)
		return
	}
	var req api.RunRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		api.WriteError(w, api.ErrInvalidRequest, "bad request body: %v", err)
		return
	}
	kind, bench, opt, reps, _, err := req.Normalize()
	if err != nil {
		api.WriteError(w, api.ErrorCode(err), "%v", err)
		return
	}

	key := sched.CacheKey(kind, bench, opt, reps)
	if rec, ok := g.cache.get(key); ok {
		g.metrics.CacheHits.Add(1)
		res := rec.Result
		api.WriteJSON(w, http.StatusOK, api.JobStatus{
			State: api.JobDone, Kind: rec.Kind, Benchmark: rec.Benchmark,
			Cached: true, Result: &res, Replicated: rec.Replicated,
		})
		return
	}

	fr, err := g.forwardKey(r.Context(), d2m.WarmKey(kind, bench, opt), http.MethodPost, "/v1/run", raw, r.Header.Get("X-API-Key"))
	if err != nil {
		api.WriteError(w, api.ErrDraining, "no scheduler shard available")
		return
	}
	g.metrics.RunsForwarded.Add(1)
	if fr.status != http.StatusOK && fr.status != http.StatusAccepted {
		relay(w, fr)
		return
	}
	var st api.JobStatus
	if err := json.Unmarshal(fr.body, &st); err != nil {
		api.WriteError(w, api.ErrInternal, "bad shard response: %v", err)
		return
	}
	if st.ID != "" {
		st.ID = routedID(st.ID, fr.peer)
	}
	if st.State == api.JobDone && st.Result != nil {
		g.cache.learn(key, kind, bench, *st.Result, st.Replicated)
	}
	api.WriteJSON(w, fr.status, st)
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	g.routeJob(w, r, http.MethodGet)
}

func (g *Gateway) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	g.routeJob(w, r, http.MethodDelete)
}

// routeJob forwards a job status or cancel request to the shard named
// in the routed id. Draining and down shards are still tried: status
// for in-flight jobs on a draining shard must keep working, and a
// down shard simply yields a 404-equivalent transport error.
func (g *Gateway) routeJob(w http.ResponseWriter, r *http.Request, method string) {
	id := r.PathValue("id")
	local, peerName, ok := splitRouted(id)
	if !ok {
		api.WriteError(w, api.ErrNotFound, "unknown job id %q", id)
		return
	}
	p, ok := g.peers.byName(peerName)
	if !ok {
		api.WriteError(w, api.ErrNotFound, "unknown shard %q in job id %q", peerName, id)
		return
	}
	if method == http.MethodGet && api.AcceptsSSE(r) {
		g.streamJobProxy(w, r, p, local)
		return
	}
	fr, err := g.do(r.Context(), p, method, "/v1/jobs/"+local, nil, r.Header.Get("X-API-Key"))
	if err != nil {
		api.WriteError(w, api.ErrInternal, "shard %s unreachable: %v", p.Name, err)
		return
	}
	var st api.JobStatus
	if json.Unmarshal(fr.body, &st) == nil && st.ID != "" {
		st.ID = routedID(st.ID, p)
		api.WriteJSON(w, fr.status, st)
		return
	}
	relay(w, fr)
}

// jobListBody mirrors the shard's GET /v1/jobs page shape.
type jobListBody struct {
	Jobs       []api.JobStatus `json:"jobs"`
	NextCursor string          `json:"next_cursor,omitempty"`
}

// handleJobs merges the fleet's job listings: every Up or Draining
// shard is asked for its newest jobs, ids are rewritten to routable
// form, and the merged list is sorted newest-first per shard order.
// Cursors do not span shards; the merged listing caps at the requested
// limit without one.
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		fmt.Sscanf(v, "%d", &limit)
		if limit < 1 || limit > 500 {
			limit = 50
		}
	}
	merged := jobListBody{Jobs: []api.JobStatus{}}
	for _, entry := range g.peers.snapshot() {
		if entry.State == PeerDown {
			continue
		}
		fr, err := g.do(r.Context(), entry.Peer, http.MethodGet, "/v1/jobs?"+r.URL.RawQuery, nil, r.Header.Get("X-API-Key"))
		if err != nil || fr.status != http.StatusOK {
			continue
		}
		var page jobListBody
		if json.Unmarshal(fr.body, &page) != nil {
			continue
		}
		for i := range page.Jobs {
			page.Jobs[i].ID = routedID(page.Jobs[i].ID, entry.Peer)
		}
		merged.Jobs = append(merged.Jobs, page.Jobs...)
	}
	sort.SliceStable(merged.Jobs, func(a, b int) bool { return merged.Jobs[a].ID > merged.Jobs[b].ID })
	if len(merged.Jobs) > limit {
		merged.Jobs = merged.Jobs[:limit]
	}
	api.WriteJSON(w, http.StatusOK, merged)
}

// handleCapabilities relays the capability catalog from the first
// reachable shard (the catalog is identical across a homogeneous
// fleet).
func (g *Gateway) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	for _, entry := range g.peers.snapshot() {
		if entry.State == PeerDown {
			continue
		}
		fr, err := g.do(r.Context(), entry.Peer, http.MethodGet, "/v1/capabilities", nil, r.Header.Get("X-API-Key"))
		if err == nil && fr.status == http.StatusOK {
			relay(w, fr)
			return
		}
	}
	api.WriteError(w, api.ErrDraining, "no scheduler shard available")
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up, draining, down := g.peers.counts()
	api.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"mode":   "gateway",
		"peers":  map[string]int{"up": up, "draining": draining, "down": down},
		"cached": g.cache.len(),
	})
}

// handleReadyz: the gateway is ready when at least one shard can take
// work.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	up, _, _ := g.peers.counts()
	if up == 0 {
		api.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]interface{}{"status": "no shards"})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]interface{}{"status": "ok"})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("d2m_gateway_runs_forwarded_total", "Runs forwarded to a shard.", g.metrics.RunsForwarded.Load())
	counter("d2m_gateway_batches_forwarded_total", "Sub-batches forwarded to shards.", g.metrics.BatchesForwarded.Load())
	counter("d2m_gateway_sweeps_accepted_total", "Fleet sweeps accepted.", g.metrics.SweepsAccepted.Load())
	counter("d2m_gateway_cache_hits_total", "Requests served from the gateway result cache.", g.metrics.CacheHits.Load())
	counter("d2m_gateway_failovers_total", "Forwards that left the ring owner for a successor.", g.metrics.Failovers.Load())
	counter("d2m_gateway_store_loaded_total", "Journal records merged at startup.", g.metrics.StoreLoaded.Load())
	counter("d2m_gateway_cells_remapped_total", "Sweep cells remapped off a lost or draining shard.", g.metrics.CellsRemapped.Load())
	counter("d2m_gateway_traces_forwarded_total", "Trace uploads fanned out to the fleet.", g.metrics.TracesForwarded.Load())
	fmt.Fprintf(w, "# HELP d2m_gateway_peer_up Peer readiness by shard (1 up, 0 not).\n# TYPE d2m_gateway_peer_up gauge\n")
	for _, entry := range g.peers.snapshot() {
		v := 0
		if entry.State == PeerUp {
			v = 1
		}
		fmt.Fprintf(w, "d2m_gateway_peer_up{peer=%q} %d\n", entry.Name, v)
	}
}
