package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// procSample is one reading of a process's kernel-side counters, taken from
// outside the process so reading them costs the process nothing.
type procSample struct {
	cpuNs        uint64 // time on CPU summed over threads (task/*/schedstat), ns
	utime, stime uint64 // user and system time, clock ticks (stat)
	syscr, syscw uint64 // read and write syscalls (io)
	rchar        uint64 // bytes those read syscalls returned (io)
	ctxSwitches  uint64 // voluntary + involuntary, summed over threads (task/*/status)
	hwmKiB       uint64 // peak resident set, VmHWM (status)
}

// readProc samples /proc/<pid>. Threads that exit between listing and
// reading are skipped; Go's runtime keeps its threads for the life of the
// process, so no CPU time is lost that way.
func readProc(pid int) (procSample, error) {
	dir := fmt.Sprintf("/proc/%d", pid)
	var s procSample
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.utime, s.stime, err = parseStat(b); err != nil {
		return s, err
	}
	b, err = os.ReadFile(dir + "/io")
	if err != nil {
		return s, err
	}
	kv := parseKV(b)
	s.syscr, s.syscw, s.rchar = kv["syscr"], kv["syscw"], kv["rchar"]
	b, err = os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	s.hwmKiB = parseKV(b)["VmHWM"]
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		tdir := dir + "/task/" + t.Name()
		b, err := os.ReadFile(tdir + "/schedstat")
		if err != nil {
			continue
		}
		ns, err := parseSchedstat(b)
		if err != nil {
			return s, err
		}
		b, err = os.ReadFile(tdir + "/status")
		if err != nil {
			continue
		}
		st := parseKV(b)
		s.cpuNs += ns
		s.ctxSwitches += st["voluntary_ctxt_switches"] + st["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// parseStat extracts utime and stime (fields 14 and 15) from
// /proc/<pid>/stat. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStat(b []byte) (utime, stime uint64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseKV reads the "key: value [unit]" lines of /proc/<pid>/io and
// /proc/<pid>/status, keeping every key whose value starts with an
// unsigned integer.
func parseKV(b []byte) map[string]uint64 {
	kv := make(map[string]uint64)
	for _, line := range strings.Split(string(b), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(f[0], 10, 64); err == nil {
			kv[strings.TrimSpace(key)] = n
		}
	}
	return kv
}

// parseSchedstat reads the first field of a schedstat file: nanoseconds
// the task has spent on a CPU.
func parseSchedstat(b []byte) (uint64, error) {
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, errors.New("schedstat: empty")
	}
	return strconv.ParseUint(f[0], 10, 64)
}

// parseMemStats reads the runtime.MemStats trailer that
// /debug/pprof/allocs?debug=1 appends to the profile: the exact number of
// heap objects allocated since the process started, and of completed GC
// cycles.
func parseMemStats(r io.Reader) (mallocs, numGC uint64, err error) {
	var haveMallocs, haveGC bool
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			if mallocs, err = strconv.ParseUint(v, 10, 64); err != nil {
				return 0, 0, fmt.Errorf("memstats Mallocs: %w", err)
			}
			haveMallocs = true
		} else if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			if numGC, err = strconv.ParseUint(v, 10, 64); err != nil {
				return 0, 0, fmt.Errorf("memstats NumGC: %w", err)
			}
			haveGC = true
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if !haveMallocs || !haveGC {
		return 0, 0, errors.New("memstats: no Mallocs/NumGC lines in the profile")
	}
	return mallocs, numGC, nil
}
