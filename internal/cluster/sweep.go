package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service"
	"d2m/internal/service/sched"
)

// Fleet sweeps: POST /v1/sweeps at the gateway expands the grid ONCE
// (the same validation path a shard runs), then partitions the cells
// by warm-identity ring owner and submits each shard one sub-sweep
// through the explicit-Cells form of the same endpoint. Every cell of
// a warm identity lands on one shard, so snapshot reuse and
// single-flight coalescing work exactly as in a single process — the
// fleet never splits a warm chain. The orchestrator follows each
// sub-sweep's event stream (the shard's SSE view of the sweep), settles
// every cell the moment its event arrives, and when a shard drains or
// dies mid-sweep, resubmits its unfinished cells to the remapped ring
// owners — the sweep survives losing a shard as long as one remains.

// gatewaySweep is the gateway's record of one fleet sweep.
type gatewaySweep struct {
	id        string
	apiKey    string // caller credential, forwarded on every sub-sweep hop
	baseline  d2m.Kind
	reps      int
	engine    string // normalized engine hint, forwarded to sub-sweeps
	timeoutMS int64
	cells     []d2m.SweepCell
	keys      []string // canonical cache key per cell
	warm      []string // warm-identity shard key per cell

	ctx    context.Context
	cancel context.CancelFunc
	doneCh chan struct{}

	mu       sync.Mutex
	state    service.SweepState
	outcome  []service.SweepCellStatus // State=="" means unresolved
	done     int
	cached   int
	failed   int
	canceled int
	created  time.Time
	finished time.Time
	summary  *service.SweepSummary
	// events mirrors the shard-side SSE event log: cell indexes in
	// settle order, with eventsCh closed and replaced on every append
	// so streamers wake without being tracked. Cells settle as their
	// sub-sweep events arrive, so the order interleaves the shards' —
	// but the framing and payloads are identical.
	events   []int
	eventsCh chan struct{}
}

// settle records one cell's terminal outcome exactly once.
func (sw *gatewaySweep) settle(i int, cs service.SweepCellStatus) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.settleLocked(i, cs)
}

func (sw *gatewaySweep) settleLocked(i int, cs service.SweepCellStatus) {
	if sw.outcome[i].State != "" {
		return
	}
	sw.outcome[i] = cs
	switch cs.State {
	case api.JobDone:
		sw.done++
		if cs.Cached {
			sw.cached++
		}
	case api.JobCanceled:
		sw.canceled++
	default:
		sw.failed++
	}
	sw.events = append(sw.events, i)
	close(sw.eventsCh)
	sw.eventsCh = make(chan struct{})
}

// pending lists the unresolved cell indexes.
func (sw *gatewaySweep) pending() []int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	var out []int
	for i := range sw.outcome {
		if sw.outcome[i].State == "" {
			out = append(out, i)
		}
	}
	return out
}

// status snapshots the sweep's JSON view in the same shape a shard
// renders (no ETA: cell latencies live on the shards).
func (sw *gatewaySweep) status() service.SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := service.SweepStatus{
		ID: sw.id, State: sw.state, Total: len(sw.cells),
		Done: sw.done, Cached: sw.cached, Failed: sw.failed, Canceled: sw.canceled,
		Summary: sw.summary,
	}
	end := time.Now()
	if !sw.finished.IsZero() {
		end = sw.finished
	}
	st.ElapsedMS = float64(end.Sub(sw.created)) / float64(time.Millisecond)
	return st
}

// cellStatuses snapshots the ?cells=1 view; unresolved cells read as
// queued, mirroring the shard's rendering.
func (sw *gatewaySweep) cellStatuses() []service.SweepCellStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]service.SweepCellStatus, len(sw.outcome))
	copy(out, sw.outcome)
	for i := range out {
		if out[i].State == "" {
			out[i].State = api.JobQueued
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// HTTP handlers.

func (g *Gateway) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	var req service.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		api.WriteError(w, api.ErrInvalidRequest, "bad request body: %v", err)
		return
	}
	cells, baseline, reps, engine, err := service.ExpandSweep(req)
	if err != nil {
		api.WriteError(w, api.ErrorCode(err), "%v", err)
		return
	}

	sw := &gatewaySweep{
		id:        fmt.Sprintf("gs%08d", g.nextSweepID.Add(1)),
		apiKey:    r.Header.Get("X-API-Key"),
		baseline:  baseline,
		reps:      reps,
		engine:    engine,
		timeoutMS: req.TimeoutMS,
		cells:     cells,
		keys:      make([]string, len(cells)),
		warm:      make([]string, len(cells)),
		outcome:   make([]service.SweepCellStatus, len(cells)),
		doneCh:    make(chan struct{}),
		eventsCh:  make(chan struct{}),
		state:     service.SweepRunning,
		created:   time.Now(),
	}
	sw.ctx, sw.cancel = context.WithCancel(g.ctx)
	for i, c := range cells {
		sw.keys[i] = sched.CacheKey(c.Kind, c.Benchmark, c.Options, reps)
		sw.warm[i] = d2m.WarmKey(c.Kind, c.Benchmark, c.Options)
		// Cells the gateway has already seen (this run or a merged
		// journal) settle without touching any shard.
		if rec, ok := g.cache.get(sw.keys[i]); ok {
			g.metrics.CacheHits.Add(1)
			res := rec.Result
			sw.settle(i, service.SweepCellStatus{
				State: api.JobDone, Cached: true, Result: &res,
			})
		}
	}

	g.mu.Lock()
	g.sweeps[sw.id] = sw
	g.mu.Unlock()
	g.metrics.SweepsAccepted.Add(1)
	g.wg.Add(1)
	go g.runSweep(sw)
	api.WriteJSON(w, http.StatusAccepted, sw.status())
}

func (g *Gateway) lookupSweep(w http.ResponseWriter, r *http.Request) *gatewaySweep {
	g.mu.Lock()
	sw, ok := g.sweeps[r.PathValue("id")]
	g.mu.Unlock()
	if !ok {
		api.WriteError(w, api.ErrNotFound, "unknown sweep id %q", r.PathValue("id"))
		return nil
	}
	return sw
}

func (g *Gateway) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	sw := g.lookupSweep(w, r)
	if sw == nil {
		return
	}
	if api.AcceptsSSE(r) {
		g.streamSweep(w, r, sw)
		return
	}
	st := sw.status()
	if r.URL.Query().Get("cells") == "1" {
		st.Cells = sw.cellStatuses()
	}
	api.WriteJSON(w, http.StatusOK, st)
}

// handleSweepDelete cancels a fleet sweep: the orchestrator cancels
// its active sub-sweeps on the shards and settles the remainder as
// canceled. Deleting a settled sweep is a no-op returning its status.
func (g *Gateway) handleSweepDelete(w http.ResponseWriter, r *http.Request) {
	sw := g.lookupSweep(w, r)
	if sw == nil {
		return
	}
	sw.cancel()
	api.WriteJSON(w, http.StatusOK, sw.status())
}

// ---------------------------------------------------------------------------
// Orchestration.

// runSweep drives a fleet sweep to completion: rounds of
// partition-by-owner, sub-sweep submission, and streaming, until every
// cell settles or no shard remains. Cells stranded by a shard that
// drained or died rejoin the pending set and remap to the ring's new
// owners next round — bounded by one round per fleet member plus one,
// which covers shards failing one after another.
func (g *Gateway) runSweep(sw *gatewaySweep) {
	defer g.wg.Done()
	maxRounds := len(g.peers.peers) + 1
	for round := 0; round < maxRounds && sw.ctx.Err() == nil; round++ {
		pending := sw.pending()
		if len(pending) == 0 {
			break
		}
		groups := map[string][]int{}
		for _, i := range pending {
			owners := g.peers.owners(sw.warm[i], 1)
			if len(owners) == 0 {
				continue // no live shard right now
			}
			groups[owners[0].Name] = append(groups[owners[0].Name], i)
		}
		if len(groups) == 0 {
			break // fleet is gone; remaining cells settle as canceled
		}
		if round > 0 {
			g.metrics.CellsRemapped.Add(uint64(len(pending)))
			g.logf("sweep %s: remapping %d cells (round %d)", sw.id, len(pending), round)
		}
		var wg sync.WaitGroup
		for name, idxs := range groups {
			p, _ := g.peers.byName(name)
			wg.Add(1)
			go func(p Peer, idxs []int) {
				defer wg.Done()
				g.runSubSweep(sw, p, idxs)
			}(p, idxs)
		}
		wg.Wait()
	}
	g.finalizeSweep(sw)
}

// runSubSweep submits one shard-local slice of the sweep and follows
// its event stream to settlement. Any shard loss returns with the
// slice's unsettled cells still pending; the next round remaps them.
func (g *Gateway) runSubSweep(sw *gatewaySweep, p Peer, idxs []int) {
	sub := service.SweepRequest{
		Cells:      make([]d2m.SweepCell, len(idxs)),
		TimeoutMS:  sw.timeoutMS,
		Replicates: sw.reps,
		Engine:     sw.engine,
	}
	for k, i := range idxs {
		sub.Cells[k] = sw.cells[i]
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return
	}
	fr, err := g.do(sw.ctx, p, http.MethodPost, "/v1/sweeps", body, sw.apiKey)
	if err != nil {
		if sw.ctx.Err() == nil {
			g.peers.setState(p.Name, PeerDown)
			g.logf("peer %s is down (%v)", p.Name, err)
		}
		return
	}
	if isDrainingResponse(fr) {
		g.peers.setState(p.Name, PeerDraining)
		g.logf("peer %s is draining", p.Name)
		return
	}
	if fr.status != http.StatusAccepted {
		// A validation rejection cannot heal by remapping: settle the
		// slice as failed so the sweep terminates with the shard's error.
		var eb api.ErrorBody
		msg := fmt.Sprintf("shard %s rejected sub-sweep (HTTP %d)", p.Name, fr.status)
		if json.Unmarshal(fr.body, &eb) == nil && eb.Error.Message != "" {
			msg = eb.Error.Message
		}
		for _, i := range idxs {
			sw.settle(i, service.SweepCellStatus{State: api.JobFailed, Error: msg})
		}
		return
	}
	var st service.SweepStatus
	if err := json.Unmarshal(fr.body, &st); err != nil || st.ID == "" {
		return
	}
	err = g.followSubSweep(sw, p, st.ID, idxs)
	switch {
	case sw.ctx.Err() != nil:
		// Gateway-side cancel: the stream is closed; release the
		// shard's cells too.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		g.do(ctx, p, http.MethodDelete, "/v1/sweeps/"+st.ID, nil, sw.apiKey)
		cancel()
	case err != nil:
		g.peers.setState(p.Name, PeerDown)
		g.logf("peer %s is down (%v)", p.Name, err)
	}
}

// errSubSweepSettled ends a sub-sweep stream at its terminal event.
var errSubSweepSettled = errors.New("sub-sweep settled")

// followSubSweep reads one sub-sweep's event stream from its shard,
// settling each done or failed cell (and teaching the result cache) as
// its event arrives. Canceled cells — the shard started draining
// mid-sweep — stay pending and remap next round. It returns nil at the
// terminal "sweep" event, or when the shard no longer knows the
// sub-sweep (a restart; its cells remap); any other error means the
// stream broke first, leaving the unsettled cells pending.
func (g *Gateway) followSubSweep(sw *gatewaySweep, p Peer, subID string, idxs []int) error {
	req, err := http.NewRequestWithContext(sw.ctx, http.MethodGet, p.URL+"/v1/sweeps/"+subID, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if sw.apiKey != "" {
		req.Header.Set("X-API-Key", sw.apiKey)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		return nil
	}
	err = scanEvents(resp.Body, func(_ int, event string, data []byte) error {
		switch event {
		case "sweep":
			return errSubSweepSettled
		case "cell":
			var ev service.SweepCellEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return err
			}
			if ev.Index < 0 || ev.Index >= len(idxs) {
				return fmt.Errorf("cell event index %d outside sub-sweep of %d", ev.Index, len(idxs))
			}
			i, cs := idxs[ev.Index], ev.Cell
			switch cs.State {
			case api.JobDone:
				if cs.Result != nil {
					c := sw.cells[i]
					g.cache.learn(sw.keys[i], c.Kind, c.Benchmark, *cs.Result, nil)
				}
				sw.settle(i, cs)
			case api.JobFailed:
				sw.settle(i, cs)
			}
		}
		return nil
	})
	switch {
	case errors.Is(err, errSubSweepSettled):
		return nil
	case err == nil:
		return io.ErrUnexpectedEOF
	}
	return err
}

// finalizeSweep aggregates the settled cells into the same summary a
// single shard computes — d2m.SummarizeSweep over the full grid — so
// a fleet sweep's summary is byte-identical to the single-process one.
func (g *Gateway) finalizeSweep(sw *gatewaySweep) {
	sw.mu.Lock()
	for i := range sw.outcome {
		if sw.outcome[i].State == "" {
			sw.settleLocked(i, service.SweepCellStatus{
				State: api.JobCanceled, Error: "no scheduler shard available",
			})
		}
	}
	results := make([]*d2m.Result, len(sw.cells))
	for i := range sw.outcome {
		if sw.outcome[i].State == api.JobDone {
			results[i] = sw.outcome[i].Result
		}
	}
	interrupted := sw.canceled > 0 || sw.ctx.Err() != nil
	sw.mu.Unlock()

	summary := &service.SweepSummary{
		Baseline: sw.baseline.String(),
		Kinds:    d2m.SummarizeSweep(sw.baseline, sw.cells, results),
	}
	sw.mu.Lock()
	sw.summary = summary
	sw.finished = time.Now()
	if interrupted {
		sw.state = service.SweepCanceled
	} else {
		sw.state = service.SweepDone
	}
	sw.mu.Unlock()
	sw.cancel()
	close(sw.doneCh)
}
