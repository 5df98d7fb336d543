// Command loaddriver is the benchmark's own load generator for the
// fleet-zipf workload: one process, two closed-loop clients sharing at
// most two connections, replaying a seeded Zipf(1.1) stream over a fixed
// population of synth planning questions against POST /v1/plan.
//
//	loaddriver -target http://127.0.0.1:7100 -seed 3 -lead 3 -seconds 20 -out run.json
//
// Each client sends its next request only when the previous answer has
// been read in full. The first -lead seconds of the stream are sent but
// marked as lead-in, so the memory tiers, connections and heaps settle
// before the measured -seconds begin. With -warm the driver instead asks
// every question once, in population order, from one client, and stops:
// that fills the fleet before a timed replay.
//
// The driver records every request's latency, status and cache headers,
// and keeps each distinct (fingerprint, 200 body) pair it was sent per
// question. It writes one JSON report to -out; checking the bodies is
// left to the caller.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphpipe/internal/fleet"
	"graphpipe/internal/service"
	"graphpipe/internal/synth"
)

// Record is one request as the client saw it.
type Record struct {
	Question int    `json:"q"`
	LatNanos int64  `json:"lat_ns"`
	Status   int    `json:"status"` // 0: transport error
	Source   string `json:"source,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Bytes    int    `json:"bytes"`
	// Lead marks a request sent during the lead-in, before measuring.
	Lead bool `json:"lead,omitempty"`
}

// Answer is one distinct 200 answer to a question.
type Answer struct {
	Fingerprint string `json:"fingerprint"`
	Body        string `json:"body"`
}

// Report is the driver's output.
type Report struct {
	Questions []string `json:"questions"` // request body per question index
	Records   []Record `json:"records"`
	WindowS   float64  `json:"window_s"` // measured window, lead-in excluded
	// Answers lists, per question index, the distinct 200 answers in the
	// order they first arrived.
	Answers map[string][]Answer `json:"answers"`
}

// The traffic mix. The population is fixed so that every seed sees the
// same questions at the same popularity ranks and runs differ only in the
// order of requests; 512 questions over three shards is well above each
// shard's memory tier in the fleet-zipf workload.
const (
	population     = 512
	populationSeed = 1
	zipfS          = 1.1
	clients        = 2 // also the connection cap: callers block on their plan, and nproc is 2
)

// devices are assigned to questions round-robin.
var devices = []int{2, 3, 4}

func main() {
	var (
		target  = flag.String("target", "", "base URL to send POST /v1/plan to")
		seed    = flag.Int64("seed", 1, "seed of the Zipf request stream")
		lead    = flag.Float64("lead", 0, "seconds of requests sent before measuring")
		seconds = flag.Float64("seconds", 20, "how long to send measured requests")
		out     = flag.String("out", "", "report file")
		warm    = flag.Bool("warm", false, "ask every question once from one client instead of replaying")
	)
	flag.Parse()
	if *target == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "loaddriver: -target and -out are required")
		os.Exit(2)
	}
	questions, err := buildQuestions()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loaddriver:", err)
		os.Exit(2)
	}
	var rep Report
	if *warm {
		rep = warmUp(*target, questions)
	} else {
		rep = replay(*target, questions, *seed, time.Duration(*lead*float64(time.Second)), time.Duration(*seconds*float64(time.Second)))
	}
	data, err := json.Marshal(rep)
	if err == nil {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loaddriver:", err)
		os.Exit(1)
	}
}

// buildQuestions renders the population's request bodies; index 0 is the
// most popular question.
func buildQuestions() ([]string, error) {
	specs, err := synth.Population(nil, population, populationSeed)
	if err != nil {
		return nil, err
	}
	qs := make([]string, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(struct {
			Model   string `json:"model"`
			Devices int    `json:"devices"`
		}{s.String(), devices[i%len(devices)]})
		if err != nil {
			return nil, err
		}
		qs[i] = string(b)
	}
	return qs, nil
}

// stream draws question indices with probability proportional to
// 1/(rank+1)^s, from one seeded source shared by all clients.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand
	cdf []float64
}

func newStream(seed int64, n int) *stream {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &stream{rng: rand.New(rand.NewSource(seed)), cdf: cdf}
}

func (s *stream) next() int {
	s.mu.Lock()
	u := s.rng.Float64()
	s.mu.Unlock()
	i := sort.SearchFloat64s(s.cdf, u)
	if i >= len(s.cdf) {
		i = len(s.cdf) - 1
	}
	return i
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// warmUp asks every question once, one at a time, so that each is planned
// exactly once, by the shard that owns it.
func warmUp(target string, questions []string) Report {
	client := newClient()
	defer client.CloseIdleConnections()
	rep := Report{Questions: questions, Answers: make(map[string][]Answer, len(questions))}
	start := time.Now()
	for q, body := range questions {
		rec, ans := send(client, target, q, body)
		if rec.Status == http.StatusOK {
			rep.Answers[strconv.Itoa(q)] = []Answer{ans}
		}
		rep.Records = append(rep.Records, rec)
	}
	rep.WindowS = time.Since(start).Seconds()
	return rep
}

func replay(target string, questions []string, seed int64, lead, d time.Duration) Report {
	client := newClient()
	defer client.CloseIdleConnections()
	st := newStream(seed, len(questions))

	var (
		mu      sync.Mutex
		records []Record
		answers = map[int][]Answer{}
		wg      sync.WaitGroup
	)
	start := time.Now().Add(lead)
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []Record
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				q := st.next()
				rec, ans := send(client, target, q, questions[q])
				rec.Lead = now.Before(start)
				if rec.Status == http.StatusOK {
					mu.Lock()
					if !slices.Contains(answers[q], ans) {
						answers[q] = append(answers[q], ans)
					}
					mu.Unlock()
				}
				local = append(local, rec)
			}
			mu.Lock()
			records = append(records, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	rep := Report{
		Questions: questions,
		Records:   records,
		WindowS:   time.Since(start).Seconds(),
		Answers:   make(map[string][]Answer, len(answers)),
	}
	for q, as := range answers {
		rep.Answers[strconv.Itoa(q)] = as
	}
	return rep
}

// send posts one question and reads the whole answer. The latency runs
// from just before the request is written to the last body byte.
func send(client *http.Client, target string, q int, body string) (Record, Answer) {
	rec := Record{Question: q}
	start := time.Now()
	resp, err := client.Post(target+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		rec.LatNanos = int64(time.Since(start))
		return rec, Answer{}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.LatNanos = int64(time.Since(start))
	if err != nil {
		return rec, Answer{}
	}
	rec.Status = resp.StatusCode
	rec.Source = resp.Header.Get(service.HeaderCache)
	rec.Backend = resp.Header.Get(fleet.HeaderBackend)
	rec.Bytes = len(data)
	return rec, Answer{Fingerprint: resp.Header.Get(service.HeaderFingerprint), Body: string(data)}
}
