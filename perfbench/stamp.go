package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp records the machine, toolchain, oracle switches and source
// revision a result was measured on.
type stamp struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPU        string            `json:"cpu"`
	GoVersion  string            `json:"go_version"`
	GOAMD64    string            `json:"goamd64"`
	MMR        map[string]string `json:"mmr_env"`
	Commit     string            `json:"commit"`
}

func newStamp(o options) stamp {
	st := stamp{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		MMR:        map[string]string{},
	}
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok && strings.HasPrefix(k, "MMR_") {
			st.MMR[k] = v
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				st.GOAMD64 = s.Value
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					st.Commit += "+modified"
				}
			}
		}
	}
	if st.GOAMD64 == "" && runtime.GOARCH == "amd64" {
		st.GOAMD64 = "v1" // the toolchain default, which build info omits
	}
	if st.Commit == "" {
		st.Commit = sourceHash()
	}
	return st
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// sourceHash identifies the revision when the checkout carries no version
// control metadata: a SHA-256 over the path and bytes of every Go source
// and go.mod under the working directory, skipping build output.
func sourceHash() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
