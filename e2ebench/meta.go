package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runMeta is recorded with every result: what ran, on what.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	// Commit is the git revision when the checkout is a git work tree
	// (the launcher passes it in E2EBENCH_COMMIT), "none" otherwise;
	// SourceSHA256 identifies the sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func collectMeta(o options) runMeta {
	commit := os.Getenv("E2EBENCH_COMMIT")
	if commit == "" {
		commit = "none"
	}
	return runMeta{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit, SourceSHA256: sourceDigest("."),
	}
}

// sourceDigest hashes every Go source and go.mod file under root, in
// path order, skipping hidden directories such as the build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
