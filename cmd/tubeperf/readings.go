package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tdp/internal/obs"
)

// scraper reads metric values from an obs registry's Prometheus
// exposition, the one read interface every registered metric (counter,
// gauge and gauge callback alike) shares.
type scraper struct{ buf bytes.Buffer }

// sum returns the sum of every sample of family name whose label set
// contains label (all samples when label is empty).
func (s *scraper) sum(reg *obs.Registry, name, label string) float64 {
	s.buf.Reset()
	_ = reg.WritePrometheus(&s.buf) // writes to a bytes.Buffer cannot fail
	return sumSamples(s.buf.Bytes(), name, label)
}

func sumSamples(text []byte, name, label string) float64 {
	var total float64
	for len(text) > 0 {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		if !bytes.HasPrefix(line, []byte(name)) || len(line) <= len(name) {
			continue
		}
		if c := line[len(name)]; c != ' ' && c != '{' {
			continue
		}
		if label != "" && !bytes.Contains(line, []byte(label)) {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err == nil {
			total += v
		}
	}
	return total
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
