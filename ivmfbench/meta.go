package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meta stamps a result with what it was measured on and what it
// measured.
type meta struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit and Dirty come from git when the checkout is a git
	// repository, else read "unknown"; SourceSHA256 identifies the
	// measured source tree either way.
	Commit       string `json:"commit"`
	Dirty        string `json:"dirty"`
	SourceSHA256 string `json:"source_sha256"`
	Date         string `json:"date"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Workload     string `json:"workload"`
}

func collectMeta(cfg config) meta {
	m := meta{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		Dirty:        "unknown",
		SourceSHA256: sourceHash(cfg.root),
		Date:         time.Now().UTC().Format(time.RFC3339),
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Workload:     cfg.workload,
	}
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", cfg.root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			m.Dirty = "false"
			if len(strings.TrimSpace(string(st))) > 0 {
				m.Dirty = "true"
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root, in
// path order, skipping hidden and build directories.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// vmHWMMB reads a process's peak resident set size (VmHWM) in MB.
func vmHWMMB(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(v) // "1234", "kB"
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, io.ErrUnexpectedEOF
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat. On a virtual machine, steal is time the host ran someone
// else on this machine's CPUs: every timing in a window with much of
// it is slower for reasons outside the program.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealFrac is the share of CPU ticks stolen since the (steal, total)
// reading s0, t0.
func stealFrac(s0, t0 float64) float64 {
	s1, t1 := cpuTicks()
	if t1 <= t0 {
		return 0
	}
	return (s1 - s0) / (t1 - t0)
}

// procCPUMs reads the CPU time that process pid's threads have run,
// from /proc/<pid>/task/*/schedstat, in milliseconds. Unlike wall
// time, it leaves out time the host of a virtual machine stole from
// its CPUs.
func procCPUMs(pid int) (float64, error) {
	tasks, err := filepath.Glob(filepath.Join("/proc", strconv.Itoa(pid), "task", "*", "schedstat"))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads of process %d: %v", pid, err)
	}
	total := 0.0
	for _, p := range tasks {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data)) // run ns, wait ns, timeslices
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s", p)
		}
		ns, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s: %w", p, err)
		}
		total += ns
	}
	return total / 1e6, nil
}

// selfCPUMs is the CPU time, user plus system, this process has used,
// in milliseconds.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
