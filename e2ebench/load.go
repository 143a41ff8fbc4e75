package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kb"
	"repro/internal/report"
	"repro/internal/serve"
)

// Read traffic shape.
const (
	zipfS         = 1.1
	queryPool     = 4096
	lookupShare   = 0.8 // read_zipf: the rest are searches
	verifyEvery   = 97  // read_zipf: every 97th search is checked against the KB
	openLoopRate  = 500 // mixed: reads per second
	newestLookups = 256 // mixed: lookups target this many newest instances
	sloLimit      = 10 * time.Millisecond
	sampleKeep    = 128 // requests per reader kept for the traced pass's direct kb calls
)

// client is the benchmark's HTTP side: one transport with at most two
// connections, shared by every client goroutine of a round.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get returns the status and the whole body of GET path.
func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (c *client) getJSON(path string, v any) (int, error) {
	code, body, err := c.get(path)
	if err != nil {
		return code, err
	}
	return code, json.Unmarshal(body, v)
}

func (c *client) postJSON(path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

type readKind int

const (
	lookup readKind = iota
	search
)

// readStats is one read phase's outcome. A read is answered when it came
// back 200 and its body decoded as the endpoint's view.
type readStats struct {
	lat       [2][]time.Duration // answered reads, by kind
	answered  int
	attempted int
	failed    int
	inSLO     int
	elapsed   time.Duration
	problems  []string
	queries   []string // sample of search queries
	ids       []int    // sample of looked-up instance IDs
}

func (s *readStats) merge(o *readStats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
	s.answered += o.answered
	s.attempted += o.attempted
	s.failed += o.failed
	s.inSLO += o.inSLO
	s.problems = append(s.problems, o.problems...)
	s.queries = append(s.queries, o.queries...)
	s.ids = append(s.ids, o.ids...)
}

// readGen builds a round's readers. Everything they request derives from
// the round seed and the generated world, never from server state.
type readGen struct {
	seed   int64
	c      *client
	kb     *kb.KB   // read_zipf checks search answers against it directly
	labels []string // world entity names, in and out of the KB
}

func newReadGen(seed int64, suite *report.Suite, c *client) *readGen {
	g := &readGen{seed: seed, c: c, kb: suite.World.KB}
	for _, e := range suite.World.Entities {
		g.labels = append(g.labels, e.Name)
	}
	return g
}

// reader is one client goroutine's state.
type reader struct {
	g        *readGen
	rng      *rand.Rand
	st       *readStats
	searches int
}

func (g *readGen) reader(worker int64) *reader {
	return &reader{g: g, rng: rand.New(rand.NewSource(g.seed*1_000_003 + worker)), st: &readStats{}}
}

// read sends GET path and accounts its latency from the given start.
func (rd *reader) read(kind readKind, path string, from time.Time, view any) bool {
	rd.st.attempted++
	code, body, err := rd.g.c.get(path)
	lat := time.Since(from)
	if err != nil || code != http.StatusOK {
		rd.st.failed++
		rd.st.problems = append(rd.st.problems, fmt.Sprintf("GET %s: status %d, %v", path, code, err))
		return false
	}
	if err := json.Unmarshal(body, view); err != nil {
		rd.st.problems = append(rd.st.problems, fmt.Sprintf("GET %s: undecodable body: %v", path, err))
		return false
	}
	rd.st.lat[kind] = append(rd.st.lat[kind], lat)
	rd.st.answered++
	if lat <= sloLimit {
		rd.st.inSLO++
	}
	return true
}

// lookup fetches one instance; wantIngest requires it to be a write-back.
func (rd *reader) lookup(id int, from time.Time, wantIngest bool) {
	if len(rd.st.ids) < sampleKeep {
		rd.st.ids = append(rd.st.ids, id)
	}
	var v serve.InstanceView
	if !rd.read(lookup, "/v1/instances/"+strconv.Itoa(id), from, &v) {
		return
	}
	switch {
	case v.ID != id:
		rd.st.problems = append(rd.st.problems, fmt.Sprintf("lookup %d answered instance %d", id, v.ID))
	case wantIngest && v.Provenance != kb.ProvenanceIngest:
		rd.st.problems = append(rd.st.problems, fmt.Sprintf("written-back instance %d has provenance %q", id, v.Provenance))
	}
}

// search runs one fuzzy label search; verify compares the hits with a
// direct kb.SearchInstances call, valid only while the KB is stable.
func (rd *reader) search(q string, from time.Time, verify bool) {
	if len(rd.st.queries) < sampleKeep {
		rd.st.queries = append(rd.st.queries, q)
	}
	var v serve.SearchView
	if !rd.read(search, "/v1/search?q="+url.QueryEscape(q), from, &v) || !verify {
		return
	}
	hits, err := rd.g.kb.SearchInstances(context.Background(), q, kb.CandidateOpts{K: 10})
	if err != nil {
		rd.st.problems = append(rd.st.problems, fmt.Sprintf("direct search %q: %v", q, err))
		return
	}
	want := make([]int, len(hits))
	for i, h := range hits {
		want[i] = int(h.Instance)
	}
	got := make([]int, len(v.Hits))
	for i, h := range v.Hits {
		got[i] = h.ID
	}
	if !slices.Equal(got, want) {
		rd.st.problems = append(rd.st.problems, fmt.Sprintf("search %q answered %v, the KB says %v", q, got, want))
	}
}

// typo replaces one ASCII letter of label with another letter.
func typo(rng *rand.Rand, label string) string {
	b := []byte(label)
	var letters []int
	for i, ch := range b {
		if ('a' <= ch && ch <= 'z') || ('A' <= ch && ch <= 'Z') {
			letters = append(letters, i)
		}
	}
	if len(letters) == 0 {
		return label
	}
	i := letters[rng.Intn(len(letters))]
	ch := byte('a' + rng.Intn(25))
	if ch >= b[i]|0x20 {
		ch++ // skip the letter being replaced
	}
	b[i] = ch
	return string(b)
}

// zipfReads runs closed-loop reads over two connections for d: lookups of
// the n instances and searches from a pool of typo labels, both drawn
// Zipf(1.1) over a seeded permutation, so the popular keys are arbitrary.
func zipfReads(g *readGen, n int, d time.Duration) *readStats {
	rng := rand.New(rand.NewSource(g.seed))
	ids := rng.Perm(n)
	pool := make([]string, queryPool)
	for i := range pool {
		pool[i] = typo(rng, g.labels[rng.Intn(len(g.labels))])
	}
	deadline := time.Now().Add(d)
	return closedLoop(g, func(rd *reader) {
		idZipf := rand.NewZipf(rd.rng, zipfS, 1, uint64(n-1))
		qZipf := rand.NewZipf(rd.rng, zipfS, 1, uint64(len(pool)-1))
		for time.Now().Before(deadline) {
			if rd.rng.Float64() < lookupShare {
				rd.lookup(ids[idZipf.Uint64()], time.Now(), false)
				continue
			}
			rd.searches++
			rd.search(pool[qZipf.Uint64()], time.Now(), rd.searches%verifyEvery == 0)
		}
	})
}

// closedLoop runs body on two reader goroutines and merges their stats.
func closedLoop(g *readGen, body func(rd *reader)) *readStats {
	start := time.Now()
	readers := []*reader{g.reader(0), g.reader(1)}
	var wg sync.WaitGroup
	for _, rd := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(rd)
		}()
	}
	wg.Wait()
	st := &readStats{elapsed: time.Since(start)}
	for _, rd := range readers {
		st.merge(rd.st)
	}
	return st
}

// openLoop is the mixed workload's reader: one goroutine sending on a
// fixed schedule whatever the server's pace.
type openLoop struct {
	quit  chan struct{}
	done  chan struct{}
	start time.Time
	rd    *reader
}

// startOpenLoop reads at openLoopRate until stop: half unique typo
// searches, half lookups of the newest instances below kbSize. A looked-up
// instance at or above kbBefore must be a write-back.
//
// A request's latency counts from its due time when the previous request
// was still in flight then, and from its actual send otherwise, so sleep
// overshoot is not charged to the server.
func startOpenLoop(g *readGen, kbSize *atomic.Int64, kbBefore int) *openLoop {
	ol := &openLoop{quit: make(chan struct{}), done: make(chan struct{}), start: time.Now(), rd: g.reader(0)}
	go func() {
		defer close(ol.done)
		rd := ol.rd
		prevDone := ol.start
		for i := 0; ; i++ {
			due := ol.start.Add(time.Duration(i) * time.Second / openLoopRate)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			select {
			case <-ol.quit:
				return
			default:
			}
			from := time.Now()
			if prevDone.After(due) {
				from = due
			}
			if rd.rng.Intn(2) == 0 {
				rd.search(typo(rd.rng, g.labels[rd.rng.Intn(len(g.labels))]), from, false)
			} else {
				n := int(kbSize.Load())
				id := n - 1 - rd.rng.Intn(min(newestLookups, n))
				rd.lookup(id, from, id >= kbBefore)
			}
			prevDone = time.Now()
		}
	}()
	return ol
}

// stop ends the reader, waits for it and returns its stats.
func (ol *openLoop) stop() *readStats {
	close(ol.quit)
	<-ol.done
	ol.rd.st.elapsed = time.Since(ol.start)
	return ol.rd.st
}

// calibrateSleep returns the median overshoot of a 1 ms time.Sleep, the
// open-loop generator's timing error on the machine running it.
func calibrateSleep() time.Duration {
	over := make([]time.Duration, 200)
	for i := range over {
		start := time.Now()
		time.Sleep(time.Millisecond)
		over[i] = time.Since(start) - time.Millisecond
	}
	return percentile(over, 0.5)
}
