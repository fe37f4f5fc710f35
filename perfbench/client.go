package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one HTTP exchange; a request that takes longer
// counts as failed.
const requestTimeout = 60 * time.Second

// httpClient is the benchmark's one keep-alive client. Every response
// body is read to EOF before it is closed — Go's transport cannot reuse
// a connection whose body was left unread, and a benchmark that skips
// the read measures TCP handshakes instead of the server.
type httpClient struct {
	c           *http.Client
	conns       atomic.Int64 // connections handed to requests
	reusedConns atomic.Int64 // of those, ones that came from the idle pool
}

// newHTTPClient returns a client whose idle pool holds at least conns
// connections per host, so that many concurrent drivers never churn.
func newHTTPClient(conns int) *httpClient {
	tr := &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// do sends one request and returns the status and the whole body.
func (h *httpClient) do(ctx context.Context, method, url string, body []byte, header map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		h.conns.Add(1)
		if info.Reused {
			h.reusedConns.Add(1)
		}
	}}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, ct), method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	if body != nil && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return resp.StatusCode, data, nil
}

// reuseFrac is the share of requests that were served on a connection
// taken from the idle pool rather than a freshly dialled one.
func (h *httpClient) reuseFrac() float64 {
	n := h.conns.Load()
	if n == 0 {
		return 0
	}
	return float64(h.reusedConns.Load()) / float64(n)
}

// close drops the idle connections.
func (h *httpClient) close() { h.c.CloseIdleConnections() }

// ok2xx reports a successful status.
func ok2xx(code int) bool { return code >= 200 && code < 300 }
