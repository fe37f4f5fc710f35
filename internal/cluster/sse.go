package cluster

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"d2m/internal/api"
	"d2m/internal/service"
)

// Gateway-side live streaming (API v1.6). Jobs live on exactly one
// shard, so GET /v1/jobs/{id} with Accept: text/event-stream is a
// streaming proxy: the gateway opens the shard's stream and relays
// each frame, rewriting the data line's job id to the routable
// <localid>@<shard> form and keeping the shard's event ids — a client
// that reconnects through the gateway replays the same Last-Event-ID
// it would give the shard directly. Fleet sweeps are
// gateway-orchestrated, so GET /v1/sweeps/{id} streams from the
// gateway's own merged event log with the same framing and payload
// shapes a shard emits.

// streamJobProxy relays one shard's job event stream.
func (g *Gateway) streamJobProxy(w http.ResponseWriter, r *http.Request, p Peer, local string) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.URL+"/v1/jobs/"+local, nil)
	if err != nil {
		api.WriteError(w, api.ErrInternal, "%v", err)
		return
	}
	req.Header.Set("Accept", "text/event-stream")
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		req.Header.Set("Last-Event-ID", v)
	}
	if k := r.Header.Get("X-API-Key"); k != "" {
		req.Header.Set("X-API-Key", k)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		api.WriteError(w, api.ErrInternal, "shard %s unreachable: %v", p.Name, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		// Not a stream (404, 401, ...): relay the envelope as-is.
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		relay(w, forwardResult{status: resp.StatusCode, header: resp.Header, body: buf, peer: p})
		return
	}
	out, ok := api.NewSSEWriter(w)
	if !ok {
		api.WriteError(w, api.ErrInternal, "response writer cannot stream")
		return
	}

	// Relay frame by frame. Only the data line changes, and only its id
	// field: the shard and the gateway marshal the same JobStatus type,
	// so the re-encoded line is byte-identical apart from the routed id.
	scanEvents(resp.Body, func(id int, event string, data []byte) error {
		if event == "state" {
			var st api.JobStatus
			if json.Unmarshal(data, &st) == nil && st.ID != "" {
				st.ID = routedID(st.ID, p)
				if b, err := json.Marshal(st); err == nil {
					data = b
				}
			}
		}
		return out.Raw(id, event, data)
	})
}

// scanEvents reads a text/event-stream body frame by frame, calling fn
// with each complete event (frames without a data line are skipped).
// It stops at the first error fn returns and hands that error back;
// otherwise it returns the read error that ended the body, nil at a
// clean EOF.
func scanEvents(body io.Reader, fn func(id int, event string, data []byte) error) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	var id int
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != nil {
				if err := fn(id, event, data); err != nil {
					return err
				}
			}
			id, event, data = 0, "", nil
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	return sc.Err()
}

// cellStatus renders one cell for an SSE "cell" event, unresolved
// cells reading as queued exactly like the ?cells=1 view.
func (sw *gatewaySweep) cellStatus(i int) service.SweepCellStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	cs := sw.outcome[i]
	if cs.State == "" {
		cs.State = api.JobQueued
	}
	return cs
}

// streamSweep replays the fleet sweep's merged event log from the
// client's cursor and follows the live tail — the same loop the shard
// runs, over the gateway's own log.
func (g *Gateway) streamSweep(w http.ResponseWriter, r *http.Request, sw *gatewaySweep) {
	out, ok := api.NewSSEWriter(w)
	if !ok {
		api.WriteJSON(w, http.StatusOK, sw.status())
		return
	}
	last := api.LastEventID(r)
	for {
		sw.mu.Lock()
		n := len(sw.events)
		settled := sw.state != service.SweepRunning
		ch := sw.eventsCh
		if last > n {
			last = n
		}
		pending := append([]int(nil), sw.events[last:n]...)
		sw.mu.Unlock()

		for _, i := range pending {
			last++
			ev := service.SweepCellEvent{Index: i, Cell: sw.cellStatus(i)}
			if err := out.Event(last, "cell", ev); err != nil {
				return
			}
		}
		if settled {
			out.Event(n+1, "sweep", sw.status())
			return
		}
		select {
		case <-ch:
		case <-sw.doneCh:
		case <-r.Context().Done():
			return
		}
	}
}

// handleSweeps lists the gateway's fleet sweeps newest first with the
// same state filter and cursor pagination a shard serves. The listing
// is gateway-local: fleet sweeps exist only here (the shards see
// anonymous sub-sweeps), so nothing is fanned out.
func (g *Gateway) handleSweeps(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter service.SweepState
	switch st := q.Get("state"); st {
	case "":
	case string(service.SweepRunning), string(service.SweepDone), string(service.SweepCanceled):
		filter = service.SweepState(st)
	default:
		api.WriteError(w, api.ErrInvalidRequest,
			"unknown state %q: want running, done, or canceled", st)
		return
	}
	limit := 50
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			api.WriteError(w, api.ErrInvalidRequest, "bad limit %q", raw)
			return
		}
		limit = n
		if limit > 500 {
			limit = 500
		}
	}
	cursor := q.Get("cursor")

	g.mu.Lock()
	sweeps := make([]*gatewaySweep, 0, len(g.sweeps))
	for _, sw := range g.sweeps {
		sweeps = append(sweeps, sw)
	}
	g.mu.Unlock()
	sort.Slice(sweeps, func(a, b int) bool { return sweeps[a].id > sweeps[b].id })

	list := service.SweepList{Sweeps: []service.SweepStatus{}}
	for _, sw := range sweeps {
		if cursor != "" && sw.id >= cursor {
			continue
		}
		st := sw.status()
		if filter != "" && st.State != filter {
			continue
		}
		st.Summary = nil
		if len(list.Sweeps) == limit {
			list.NextCursor = list.Sweeps[limit-1].ID
			break
		}
		list.Sweeps = append(list.Sweeps, st)
	}
	api.WriteJSON(w, http.StatusOK, list)
}
