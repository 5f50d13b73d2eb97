package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/target"
)

// postBinary sends concatenated irbin frames to /allocate under the
// binary content type.
func postBinary(t *testing.T, url string, query string, frames []byte, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url+"/allocate?"+query, ContentTypeBinaryIR, bytes.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d, want %d (error: %s)", resp.StatusCode, wantCode, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocateBinaryConformance proves the binary arm of /allocate is
// observationally identical to the text arm: the same program sent both
// ways, each form to its own fresh server so both are cache misses,
// yields the same content-address key and the same allocated program
// text. The binary body then goes to the text server too and must hit
// the entry the text arm stored, so the two arms share one cache.
// Inputs are one tiny-machine program plus one x86-8 program per
// generator profile, all under binpack.
func TestAllocateBinaryConformance(t *testing.T) {
	type input struct {
		name, machine, text string
	}
	inputs := []input{{"tiny/default", "tiny:6,4", workloadText(t, "tiny:6,4", 3)}}
	const preset = "x86-8"
	x86, err := target.Parse(preset)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := experiments.Workload(x86, nil, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		inputs = append(inputs, input{preset + "/" + job.Profile, preset, job.Text})
	}

	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			mach, err := target.Parse(in.machine)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ir.ParseProgramString(in.text, mach)
			if err != nil {
				t.Fatal(err)
			}
			_, textSrv := newTestServer(t, Config{})
			var fromText AllocateResponse
			post(t, textSrv.URL, AllocateRequest{Machine: in.machine, Algorithm: "binpack", Program: in.text}, http.StatusOK, &fromText)
			query := "machine=" + in.machine + "&algorithm=binpack"
			frame := irbin.EncodeProgram(prog)
			_, binSrv := newTestServer(t, Config{})
			var fromBin AllocateResponse
			postBinary(t, binSrv.URL, query, frame, http.StatusOK, &fromBin)
			var binHit AllocateResponse
			postBinary(t, textSrv.URL, query, frame, http.StatusOK, &binHit)

			if len(fromBin.Results) != 1 {
				t.Fatalf("%d results, want 1", len(fromBin.Results))
			}
			tr, br := fromText.Results[0], fromBin.Results[0]
			if tr.Cached || br.Cached {
				t.Fatalf("fresh servers answered from cache (text %v, binary %v)", tr.Cached, br.Cached)
			}
			if br.Key != tr.Key {
				t.Errorf("binary key %s != text key %s: the two front ends hit different cache lines", br.Key, tr.Key)
			}
			if br.Program != tr.Program {
				t.Errorf("binary and text arms allocated differently:\ntext:\n%s\nbinary:\n%s", tr.Program, br.Program)
			}
			if br.Report == nil {
				t.Error("binary response missing report")
			}
			if len(binHit.Results) != 1 {
				t.Fatalf("%d results from the text server's binary arm, want 1", len(binHit.Results))
			}
			if hr := binHit.Results[0]; !hr.Cached {
				t.Error("binary body missed the entry the text body stored: the arms do not share one cache")
			} else if hr.Key != tr.Key || hr.Program != tr.Program {
				t.Errorf("binary cache hit differs from the text miss: key %s vs %s, program equal %v", hr.Key, tr.Key, hr.Program == tr.Program)
			}
			allocated, err := ir.ParseProgramString(br.Program, mach)
			if err != nil {
				t.Fatalf("binary response program does not parse: %v", err)
			}
			if err := ir.ValidateAllocated(allocated.Proc("main"), mach); err != nil {
				t.Errorf("binary response not validly allocated: %v", err)
			}
		})
	}
}

func TestAllocateBinaryBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const machine = "tiny:8,4"
	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	var frames []byte
	var want []string
	for seed := int64(1); seed <= 3; seed++ {
		text := workloadText(t, machine, seed)
		prog, err := ir.ParseProgramString(text, mach)
		if err != nil {
			t.Fatal(err)
		}
		frames = irbin.AppendProgram(frames, prog)
		want = append(want, text)
	}
	var out AllocateResponse
	postBinary(t, ts.URL, "machine="+machine+"&priority=batch", frames, http.StatusOK, &out)
	if len(out.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(out.Results), len(want))
	}
	seen := map[string]bool{}
	for i, res := range out.Results {
		if !strings.HasPrefix(res.Key, "sha256:") {
			t.Errorf("result %d key %q is not a content address", i, res.Key)
		}
		if seen[res.Key] {
			t.Errorf("result %d repeats key %s", i, res.Key)
		}
		seen[res.Key] = true
	}
}

func TestAllocateBinaryRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mach, err := target.Parse("tiny:6,4")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(workloadText(t, "tiny:6,4", 1), mach)
	if err != nil {
		t.Fatal(err)
	}
	valid := irbin.EncodeProgram(prog)

	// Empty body.
	postBinary(t, ts.URL, "machine=tiny:6,4", nil, http.StatusBadRequest, nil)
	// Garbage bytes.
	postBinary(t, ts.URL, "machine=tiny:6,4", []byte("garbage"), http.StatusBadRequest, nil)
	// Truncated frame.
	postBinary(t, ts.URL, "machine=tiny:6,4", valid[:len(valid)-4], http.StatusBadRequest, nil)
	// Trailing garbage after a valid frame.
	postBinary(t, ts.URL, "machine=tiny:6,4", append(bytes.Clone(valid), 'x'), http.StatusBadRequest, nil)
	// Missing machine.
	postBinary(t, ts.URL, "", valid, http.StatusBadRequest, nil)
	// Bad priority.
	postBinary(t, ts.URL, "machine=tiny:6,4&priority=bogus", valid, http.StatusBadRequest, nil)
}
