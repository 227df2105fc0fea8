package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// conns is the closed loop's connection count: each connection sends
// its next request when the previous reply arrives, as cosched -batch
// and SDK callers do.
const conns = 2

// phase is the outcome of one pass of the closed loop over a request
// list.
type phase struct {
	lat      []float64 // round-trip seconds, by op
	bad      []bool    // failed ops
	wall     float64   // seconds from the first send to the last reply
	failed   int
	firstErr error
}

// ok reports whether op i succeeded.
func (p *phase) ok(i int) bool { return !p.bad[i] }

// drive sends every request over the closed loop — conns keep-alive
// connections to base's host — and hands each reply body, with its
// round-trip seconds, to reply (on the sending goroutine, after the round
// trip was timed). A non-200 status, a transport error or a reply error
// counts the op as failed.
//
// The loop is the load generator, not the system under test, so it is
// kept lean: one goroutine per connection writing HTTP/1.1 requests and
// parsing replies in place. The net/http client adds two goroutine
// hand-offs per round trip that compete with coschedd for the CPUs it is
// measured on: on a 2-vCPU VM, serve-repeat driven through an
// http.Client (2 idle connections per host, same single P) measured 20%
// fewer ops/s, a 22% higher p50 and 9% more coschedd CPU per op in four
// alternating pairs with this loop (see README.md).
func drive(ctx context.Context, base string, reqs []request, reply func(i int, rt float64, body []byte) error) *phase {
	p := &phase{lat: make([]float64, len(reqs)), bad: make([]bool, len(reqs))}
	host := strings.TrimPrefix(base, "http://")
	var next atomic.Int64
	var mu sync.Mutex
	fail := func(i int, err error) {
		p.bad[i] = true
		mu.Lock()
		p.failed++
		if p.firstErr == nil {
			p.firstErr = fmt.Errorf("op %d: %w", i, err)
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc, err := dialLoad(ctx, host)
			if err != nil {
				// This connection's ops go to the other one; if none
				// connects, the first op records why.
				if i := int(next.Add(1)) - 1; i < len(reqs) {
					fail(i, err)
				}
				return
			}
			defer lc.c.Close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				body, err := lc.roundTrip(&reqs[i])
				p.lat[i] = time.Since(t0).Seconds()
				if err == nil && reply != nil {
					err = reply(i, p.lat[i], body)
				}
				if err != nil {
					fail(i, err)
					if lc.broken {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil && p.firstErr == nil {
		p.firstErr = err
	}
	return p
}

// loadConn is one keep-alive HTTP/1.1 connection of the closed loop.
type loadConn struct {
	c      net.Conn
	br     *bufio.Reader
	host   string
	buf    []byte
	broken bool
}

func dialLoad(ctx context.Context, host string) (*loadConn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	return &loadConn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: host}, nil
}

// roundTrip sends one request and returns the reply body. A transport
// or framing error marks the connection broken.
func (lc *loadConn) roundTrip(r *request) ([]byte, error) {
	b := append(lc.buf[:0], "POST "...)
	b = append(b, r.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, lc.host...)
	b = append(b, "\r\nContent-Type: application/json\r\n"...)
	if r.tenant != "" {
		b = append(b, serve.TenantHeader+": "...)
		b = append(b, r.tenant...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(r.body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, r.body...)
	lc.buf = b
	if _, err := lc.c.Write(b); err != nil {
		lc.broken = true
		return nil, err
	}
	resp, err := http.ReadResponse(lc.br, nil)
	if err != nil {
		lc.broken = true
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		lc.broken = true
		if err == nil {
			err = fmt.Errorf("server closed the connection")
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
