package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// hostFacts travel with every result, so a figure can be traced to the
// machine, toolchain and source it was measured on.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LLC        string `json:"llc"`
	LLCBytes   int64  `json:"llc_bytes"`
	// SourceSHA256 hashes the program's Go sources and go.mod, so a
	// checkout without version control still names its revision.
	SourceSHA256 string `json:"source_sha256"`
	VCSRevision  string `json:"vcs_revision,omitempty"`
	Seed         uint64 `json:"seed"`
	Workload     string `json:"workload"`
	// TrackerStateBytes is the workload's rumor-tracker state size,
	// computed from n (not measured); TrackerState says how.
	TrackerStateBytes int64  `json:"tracker_state_bytes"`
	TrackerState      string `json:"tracker_state"`
}

func collectHostFacts(root string, w workload, seed uint64) hostFacts {
	h := hostFacts{
		NProc:             runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		Seed:              seed,
		Workload:          w.name,
		TrackerStateBytes: w.stateBytes,
		TrackerState:      w.stateNote,
	}
	h.LLC, h.LLCBytes = lastLevelCache("/sys/devices/system/cpu/cpu0/cache")
	h.SourceSHA256 = sourceHash(root)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.VCSRevision = s.Value
			}
		}
	}
	return h
}

// lastLevelCache reads the highest-level cache of cpu0 from sysfs, e.g.
// "L3 105M". It reports "unknown" where sysfs does not say.
func lastLevelCache(dir string) (string, int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "unknown", 0
	}
	best, bestLevel, bestBytes := "unknown", -1, int64(0)
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(dir, e.Name(), f))
			return strings.TrimSpace(string(b))
		}
		level, err := strconv.Atoi(read("level"))
		if err != nil || level <= bestLevel || read("type") == "Instruction" {
			continue
		}
		size := read("size")
		bestLevel, best, bestBytes = level, "L"+strconv.Itoa(level)+" "+size, cacheBytes(size)
	}
	return best, bestBytes
}

func cacheBytes(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// sourceHash hashes go.mod and every .go file of the program under root,
// skipping the benchmark's own directory and hidden directories.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "go.mod" || strings.HasSuffix(rel, ".go") {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
