package main

import (
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stamp identifies what a result was measured on.
type stamp struct {
	GitHead       string `json:"git_head"` // empty outside a git checkout
	GitDirty      bool   `json:"git_dirty"`
	VCSRevision   string `json:"vcs_revision"` // embedded in the attestd binary
	VCSModified   bool   `json:"vcs_modified"`
	AttestdSHA256 string `json:"attestd_sha256"`
	BenchSHA256   string `json:"bench_sha256"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"` // the generator's, once pinned
	NProc         int    `json:"nproc"`
	DaemonCPUs    []int  `json:"daemon_cpus"`
	GenCPUs       []int  `json:"gen_cpus"`
	Kernel        string `json:"kernel"`
	Seed          int64  `json:"seed"`
	Time          string `json:"time"`
}

// buildAttestd builds cmd/attestd from the checkout at root into out and
// stamps the result. In a git checkout the binary embeds its commit, and
// the run is refused if that is not HEAD; a dirty tree is recorded, not
// refused.
func buildAttestd(root, out string, seed int64) (stamp, error) {
	st := stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       seed,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	head, herr := git(root, "rev-parse", "HEAD")
	args := []string{"build", "-o", out}
	if herr == nil {
		st.GitHead = head
		status, err := git(root, "status", "--porcelain")
		if err != nil {
			return st, err
		}
		st.GitDirty = status != ""
	} else {
		args = append(args, "-buildvcs=false") // not a git checkout
	}
	cmd := exec.Command("go", append(args, "./cmd/attestd")...)
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return st, fmt.Errorf("building attestd: %w\n%s", err, outp)
	}
	info, err := buildinfo.ReadFile(out)
	if err != nil {
		return st, fmt.Errorf("reading attestd's build info: %w", err)
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			st.VCSRevision = s.Value
		case "vcs.modified":
			st.VCSModified = s.Value == "true"
		}
	}
	if st.VCSRevision != st.GitHead {
		return st, fmt.Errorf("attestd embeds revision %q but HEAD is %q", st.VCSRevision, st.GitHead)
	}
	if st.AttestdSHA256, err = sha256File(out); err != nil {
		return st, err
	}
	self, err := os.Executable()
	if err != nil {
		return st, err
	}
	st.BenchSHA256, err = sha256File(self)
	return st, err
}

func git(root string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(out.String()), nil
}

func sha256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// findRoot returns the repository root: the directory holding
// cmd/attestd, either the working directory or its parent (when run from
// bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if fi, err := os.Stat(filepath.Join(dir, "cmd", "attestd")); err == nil && fi.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no cmd/attestd here or in the parent directory: run from the repository root")
}
