package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/obs"
	"ndsearch/internal/vec"
)

// server is an ndserve subprocess serving a snapshot directory.
type server struct {
	cmd   *exec.Cmd
	url   string
	ready time.Duration // spawn until the "listening on" log line
	logs  chan struct{} // closed once stderr is drained
}

// spawnServer starts ndserve with default flags on an ephemeral port
// and waits for its "listening on" line to learn the address.
func spawnServer(bin, dir string) (*server, error) {
	cmd := exec.Command(bin, "-load-index", dir, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn ndserve: %w", err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logs)
		found := false
		var seen []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok && !found {
				found = true
				addr <- strings.TrimSpace(a)
			}
			seen = append(seen, line)
		}
		if !found { // exited before listening: its log says why
			fmt.Fprintln(os.Stderr, strings.Join(seen, "\n"))
			addr <- ""
		}
	}()
	select {
	case a := <-addr:
		if a == "" {
			_ = cmd.Wait()
			return nil, fmt.Errorf("ndserve exited before listening")
		}
		s.url = "http://" + a
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ndserve did not listen within 60s")
	}
	s.ready = now().Sub(start)
	return s, nil
}

// stop drains the server with SIGTERM and waits for it to exit. It
// returns the child's total CPU time and peak RSS.
func (s *server) stop() (cpu time.Duration, rssMB float64, err error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(20*time.Second, func() { _ = s.cmd.Process.Kill() })
	<-s.logs
	err = s.cmd.Wait()
	kill.Stop()
	if st := s.cmd.ProcessState; st != nil {
		cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return cpu, rssMB, err
}

// searchResponse is the shape of ndserve's /search reply the harness
// relies on.
type searchResponse struct {
	Results [][]struct {
		ID   uint32  `json:"id"`
		Dist float32 `json:"dist"`
	} `json:"results"`
	Batch struct {
		Size           int     `json:"size"`
		LatencyUS      float64 `json:"latency_us"`
		CoalesceWaitUS float64 `json:"coalesce_wait_us"`
	} `json:"batch"`
	Trace []obs.Span `json:"trace"`
}

// serverStats is the part of ndserve's /stats reply the harness reads.
type serverStats struct {
	ShardSearches int64 `json:"shard_searches"`
	Coalescer     struct {
		Batches int64 `json:"batches"`
	} `json:"coalescer"`
}

// httpTarget drives ndserve's /search with pre-encoded single-query
// bodies over keep-alive connections, one per client.
type httpTarget struct {
	srv     *server
	client  *http.Client
	clients int
	// plain[i] and traced[i] are query i's body without and with
	// "trace":true.
	plain, traced [][]byte

	cpu   time.Duration // filled by close
	rssMB float64
}

func newHTTPTarget(srv *server, queries []vec.Vector, clients int) (*httpTarget, error) {
	t := &httpTarget{
		srv: srv, clients: clients,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
			Timeout:   30 * time.Second,
		},
	}
	for _, q := range queries {
		vecJSON, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		t.plain = append(t.plain, []byte(fmt.Sprintf(`{"query":%s,"k":%d}`, vecJSON, k)))
		t.traced = append(t.traced, []byte(fmt.Sprintf(`{"query":%s,"k":%d,"trace":true}`, vecJSON, k)))
	}
	return t, nil
}

// post sends one body and decodes the reply, insisting on status 200
// and one list of k neighbours.
func (t *httpTarget) post(body []byte) (*searchResponse, int, error) {
	resp, err := t.client.Post(t.srv.url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(raw), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var sr searchResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, len(raw), fmt.Errorf("bad JSON: %w", err)
	}
	if len(sr.Results) != 1 || len(sr.Results[0]) != k || sr.Batch.Size < 1 {
		return nil, len(raw), fmt.Errorf("bad shape: %d result lists, batch size %d", len(sr.Results), sr.Batch.Size)
	}
	return &sr, len(raw), nil
}

func (t *httpTarget) do(c, i int, tr *reqTrace, originUS float64, r *request) {
	per := len(t.plain) / t.clients
	qi := c*per + i%per
	body := t.plain[qi]
	if tr != nil {
		body = t.traced[qi]
	}
	start := now()
	sr, respBytes, err := t.post(body)
	dur := now().Sub(start)
	r.queries, r.reqBytes, r.respBytes = 1, len(body), respBytes
	if err != nil {
		r.err = err
		return
	}
	r.engine = time.Duration(sr.Batch.LatencyUS * float64(time.Microsecond))
	r.wait = time.Duration(sr.Batch.CoalesceWaitUS * float64(time.Microsecond))
	r.formed = sr.Batch.Size
	if tr == nil {
		return
	}
	// The program's spans are on its own clock. Centre their extent in
	// the client's span: the time they leave uncovered (HTTP, JSON) is
	// assumed to fall half before and half after.
	var extent float64
	for _, s := range sr.Trace {
		extent = max(extent, s.StartUS+s.DurUS)
	}
	id := tr.add(0, "ndserve", "POST /search", originUS, micros(dur))
	tr.addStages(id, originUS+max(0, micros(dur)-extent)/2, sr.Trace)
}

func (t *httpTarget) search(qs []vec.Vector) ([][]ann.Neighbor, error) {
	out := make([][]ann.Neighbor, len(qs))
	for i := range qs {
		sr, _, err := t.post(t.plain[i])
		if err != nil {
			return nil, fmt.Errorf("sample query %d: %w", i, err)
		}
		for _, n := range sr.Results[0] {
			out[i] = append(out[i], ann.Neighbor{ID: n.ID, Dist: n.Dist})
		}
	}
	return out, nil
}

func (t *httpTarget) counters() (counters, error) {
	resp, err := t.client.Get(t.srv.url + "/stats")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return counters{}, fmt.Errorf("/stats: %w", err)
	}
	return counters{shardSearches: st.ShardSearches, batcherBatches: st.Coalescer.Batches}, nil
}

func (t *httpTarget) close() error {
	t.client.CloseIdleConnections()
	var err error
	t.cpu, t.rssMB, err = t.srv.stop()
	return err
}
