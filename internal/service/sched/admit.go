package sched

import (
	"context"
	"errors"
	"sort"
	"time"

	"d2m"
)

// Submit runs one submission through the admission pipeline: validate,
// result-cache lookup, in-flight coalescing, enqueue. On ErrQueueFull
// nothing was admitted; callers that would rather wait for a slot than
// surface the rejection use SubmitWait.
func (s *Scheduler) Submit(sub Submission) (Admission, error) {
	adms, err := s.SubmitGroup([]Submission{sub})
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			return Admission{}, ErrQueueFull
		}
		return Admission{}, err
	}
	return adms[0], nil
}

// SubmitWait is Submit for feeders that should park rather than fail
// when the class queue is full: on ErrQueueFull it waits for a slot
// pulse (or a short poll tick, or ctx cancellation) and retries. Sweep
// cells flow through here so an overloaded queue applies backpressure
// to the sweep instead of dropping cells.
func (s *Scheduler) SubmitWait(ctx context.Context, sub Submission) (Admission, error) {
	for {
		adm, err := s.Submit(sub)
		if err == nil {
			return adm, nil
		}
		if !errors.Is(err, ErrQueueFull) {
			return Admission{}, err
		}
		t := time.NewTimer(10 * time.Millisecond)
		select {
		case <-s.slotFree:
			t.Stop()
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return Admission{}, ctx.Err()
		}
	}
}

// SubmitGroupWait is SubmitGroup with the SubmitWait parking loop: on
// ErrQueueFull it waits for a slot pulse (or a short poll tick, or ctx
// cancellation) and retries the whole group. Sweep feeders submit
// same-warm-identity cell chunks through here, so the chunk arrives as
// one leader-plus-chain unit a worker can gather into a lane group.
func (s *Scheduler) SubmitGroupWait(ctx context.Context, subs []Submission) ([]Admission, error) {
	for {
		adms, err := s.SubmitGroup(subs)
		if err == nil {
			return adms, nil
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, err
		}
		t := time.NewTimer(10 * time.Millisecond)
		select {
		case <-s.slotFree:
			t.Stop()
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// SubmitGroup admits a set of submissions atomically: either every
// submission is settled from the cache, coalesced, or enqueued, or —
// if any class queue cannot hold the new jobs — none is, and the
// returned *QueueFullError counts the jobs that were rolled back.
// Batches flow through here so a 429 never leaves a half-admitted
// batch behind.
//
// Within one group, submissions sharing a warm identity (and class)
// are chained: the first becomes the chain leader, the rest become
// affinity followers that the worker dequeuing the leader runs with
// it — as lanes of its lane group, or back-to-back after it, each
// restoring the snapshot the leader deposited.
func (s *Scheduler) SubmitGroup(subs []Submission) ([]Admission, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	for i := range subs {
		if err := subs[i].validate(); err != nil {
			return nil, err
		}
	}

	adms := make([]Admission, len(subs))
	keys := make([]string, len(subs))
	pending := make([]int, 0, len(subs))
	for i := range subs {
		keys[i] = subs[i].key()
		if res, rep, ok := s.sink.Lookup(keys[i]); ok {
			s.obs.CacheHit()
			adms[i] = Admission{Cached: true, Result: res, Replicated: rep}
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return adms, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}

	// First pass: coalesce or create, without touching the ledger or
	// queues, so a capacity rejection can roll everything back.
	type coalesce struct {
		j            *Job
		prevDetached bool
		promote      bool // interactive arrival on a queued bulk leader
	}
	var (
		coalesced []coalesce
		created   []*Job
		need      [NumPriorities]map[string]int
		byKey     = make(map[string]*Job)
	)
	for _, i := range pending {
		sub, key := subs[i], keys[i]
		target := s.inflight[key]
		if target != nil && target.ctx.Err() != nil {
			// Abandoned but not yet settled: don't coalesce onto a job
			// that is about to settle canceled.
			target = nil
		}
		if target == nil {
			target = byKey[key]
		}
		if target != nil {
			coalesced = append(coalesced, coalesce{
				j:            target,
				prevDetached: target.detached,
				promote: sub.Priority == Interactive &&
					target.spec.Priority == Bulk,
			})
			target.waiters++
			if sub.Detached {
				target.detached = true
			}
			adms[i] = Admission{Job: target}
			continue
		}
		j := s.newJobLocked(sub, key)
		byKey[key] = j
		created = append(created, j)
		if need[sub.Priority] == nil {
			need[sub.Priority] = make(map[string]int)
		}
		need[sub.Priority][sub.Tenant]++
		adms[i] = Admission{Job: j, New: true}
	}

	// QueueDepth bounds each (class, tenant) pair separately: a tenant
	// whose allotment is full is rejected without consuming any other
	// tenant's admission capacity.
	for p := Interactive; p < NumPriorities; p++ {
		for tenant, n := range need[p] {
			if s.queuedT[p][tenant]+n > s.cfg.QueueDepth {
				for _, c := range coalesced {
					c.j.waiters--
					c.j.detached = c.prevDetached
				}
				for _, j := range created {
					j.cancel()
				}
				s.mu.Unlock()
				return nil, &QueueFullError{Jobs: len(created)}
			}
		}
	}

	// Commit: register the new jobs, chain same-warm-identity jobs of
	// the same class behind one leader, and promote queued bulk leaders
	// an interactive submission just coalesced onto.
	byWarm := make(map[string]*Job)
	for _, j := range created {
		s.jobs[j.id] = j
		s.inflight[j.key] = j
		p := j.spec.Priority
		s.queuedN[p]++
		s.queuedT[p][j.spec.Tenant]++
		wk := d2m.WarmKey(j.spec.Kind, j.spec.Benchmark, j.spec.Options)
		if lead := byWarm[wk]; lead != nil && lead.spec.Priority == p &&
			lead.spec.Tenant == j.spec.Tenant {
			j.leader = lead
			lead.chain = append(lead.chain, j)
		} else {
			byWarm[wk] = j
			s.queues[p].push(j)
		}
		s.obs.JobAccepted()
		s.obs.QueuedDelta(1)
	}
	for _, c := range coalesced {
		s.obs.JobCoalesced()
		if c.promote {
			s.promoteLocked(c.j)
		}
	}
	for range pending {
		s.obs.CacheMiss()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return adms, nil
}

// promoteLocked lifts a queued bulk chain leader (and its chain) into
// the interactive class: an interactive request that coalesced onto
// bulk work should not inherit bulk queueing delay. Best-effort — a
// job that is running, chained, already popped, or would overflow the
// interactive queue stays where it is. Callers hold s.mu.
func (s *Scheduler) promoteLocked(j *Job) {
	if j.state != StateQueued || j.spec.Priority != Bulk || j.leader != nil {
		return
	}
	if s.queues[Bulk].position(j) == 0 {
		return
	}
	moved := 1 + len(j.chain)
	tenant := j.spec.Tenant
	if s.queuedT[Interactive][tenant]+moved > s.cfg.QueueDepth {
		return
	}
	s.queues[Bulk].remove(j)
	s.queuedN[Bulk] -= moved
	s.queuedN[Interactive] += moved
	if n := s.queuedT[Bulk][tenant] - moved; n > 0 {
		s.queuedT[Bulk][tenant] = n
	} else {
		delete(s.queuedT[Bulk], tenant)
	}
	s.queuedT[Interactive][tenant] += moved
	j.spec.Priority = Interactive
	for _, c := range j.chain {
		c.spec.Priority = Interactive
	}
	s.queues[Interactive].push(j)
	s.pulseSlotFree()
}

// Cancel settles a queued job immediately or signals a running one to
// abort at its next engine checkpoint. It returns ErrUnknownJob for
// ids absent from the ledger and ErrSettled (with the job, so callers
// can report its state) for jobs that already finished.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	switch {
	case j.state.settled():
		s.mu.Unlock()
		return j, ErrSettled
	case j.state == StateRunning:
		s.mu.Unlock()
		j.cancel()
		return j, nil
	}

	// Queued: take it out of the queue structures and settle it here,
	// so it never occupies a worker. A chain leader hands leadership to
	// its first follower in place; a follower just settles (the worker
	// walking the chain skips settled jobs); a leader already popped by
	// a worker needs no queue surgery (runJob will skip it).
	if j.leader == nil {
		if len(j.chain) > 0 {
			nl := j.chain[0]
			if s.queues[j.spec.Priority].replace(j, nl) {
				nl.leader = nil
				nl.chain = append(nl.chain, j.chain[1:]...)
				for _, c := range nl.chain {
					c.leader = nl
				}
				j.chain = nil
			}
		} else {
			s.queues[j.spec.Priority].remove(j)
		}
	}
	j.cancel()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	j.state = StateCanceled
	j.err = context.Canceled
	j.finished = time.Now()
	s.retireLocked(j)
	s.dequeuedLocked(j)
	s.pulseSlotFree()
	s.obs.QueuedDelta(-1)
	s.obs.JobSettled(StateCanceled)
	s.mu.Unlock()
	close(j.done)
	return j, nil
}

// Release drops one waiter's interest in a job (client disconnect or
// response written). When the last waiter of a non-detached job leaves
// before it settles, the job is abandoned: its context is cancelled so
// it aborts (or, if still queued, settles canceled without occupying a
// worker).
func (s *Scheduler) Release(j *Job) {
	s.mu.Lock()
	j.waiters--
	abandon := j.waiters <= 0 && !j.detached && !j.state.settled()
	s.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// Lookup returns the ledger's job for id.
func (s *Scheduler) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job still in the ledger, ordered by id.
func (s *Scheduler) Jobs() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.infoLocked(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// infoLocked snapshots one job. Callers hold s.mu.
func (s *Scheduler) infoLocked(j *Job) Info {
	in := Info{
		ID:        j.id,
		State:     j.state,
		Priority:  j.spec.Priority,
		Kind:      j.spec.Kind,
		Benchmark: j.spec.Benchmark,
		Engine:    j.engine,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		Err:       j.err,
	}
	if j.state == StateQueued {
		lead := j
		if j.leader != nil {
			lead = j.leader
		}
		in.QueuePos = s.queues[lead.spec.Priority].position(lead)
	}
	if j.state == StateDone {
		r := j.result
		in.Result = &r
		in.Replicated = j.replicated
	}
	return in
}
