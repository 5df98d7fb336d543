package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// lockMachine takes an exclusive flock on path so that two benchmark runs
// sharing the state directory never measure at the same time. It polls for
// up to wait and then gives up, like an artifact-evaluation lock file that
// reports the machine busy instead of queueing. The lock is released by
// the returned func or, if the process dies, by the kernel.
func lockMachine(path string, wait time.Duration) (func(), error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(wait)
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if err == nil {
			break
		}
		if !errors.Is(err, syscall.EWOULDBLOCK) || time.Now().After(deadline) {
			f.Close()
			return nil, fmt.Errorf("lock %s is held by another benchmark run; exiting: %v", path, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}

// record is the run record kept with every run: the machine fingerprint,
// the source identity and the outcome. It is printed ahead of the result
// and appended to runs.jsonl in the state directory.
type record struct {
	Time       string            `json:"time"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	SourceHash string            `json:"source_sha256"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
}

func newRecord(root, workload string, seed int64, seconds int, trace bool) *record {
	r := &record{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
	}
	b, _ := json.Marshal(r)
	fmt.Printf("record: %s\n", b)
	return r
}

func (r *record) finish(res *result) {
	r.Correct, r.Attempted, r.Failed, r.Metrics = res.Correct, res.Attempted, res.Failed, res.Metrics
}

// save appends the record to the run log. A log that cannot be written
// costs the history, not the run, so the error is only reported.
func (r *record) save(path string) {
	b, err := json.Marshal(r)
	if err == nil {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
			_, err = f.Write(append(b, '\n'))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run log:", err)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit returns HEAD when the source tree is a git checkout and
// "unknown" otherwise; sourceHash identifies the tree either way.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every Go source and module file under root (the
// benchmark's own included, the state directory excluded), so runs of
// one tree can be told from runs of another without git.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
