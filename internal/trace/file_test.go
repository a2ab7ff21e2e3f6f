package trace

import (
	"bytes"
	"testing"

	"unisoncache/internal/mem"
)

func captureStreams(t *testing.T, workload string, seed uint64, cores int) []Source {
	t.Helper()
	sources := make([]Source, cores)
	for i := range sources {
		s, err := NewStream(Profiles()[workload], seed, i)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = s
	}
	return sources
}

func TestTraceFileRoundTrip(t *testing.T) {
	const cores, events = 3, 2000
	h := FileHeader{Profile: "web-serving", Seed: 11, ScaleDivisor: 16, Cores: cores, EventsPerCore: events}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, h, captureStreams(t, "web-serving", 11, cores)); err != nil {
		t.Fatal(err)
	}

	got, sources, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip: got %+v, want %+v", got, h)
	}
	// Replay must reproduce the live streams event for event.
	live := captureStreams(t, "web-serving", 11, cores)
	for c := 0; c < cores; c++ {
		if sources[c].Remaining() != events {
			t.Fatalf("core %d: Remaining() = %d, want %d", c, sources[c].Remaining(), events)
		}
		for i := 0; i < events; i++ {
			want := live[c].Next()
			if ev := sources[c].Next(); ev != want {
				t.Fatalf("core %d event %d: replay %+v, live %+v", c, i, ev, want)
			}
		}
		if sources[c].Remaining() != 0 {
			t.Errorf("core %d: %d events left after full replay", c, sources[c].Remaining())
		}
	}
}

func TestTraceFileDrainPanics(t *testing.T) {
	var buf bytes.Buffer
	h := FileHeader{Profile: "web-search", Seed: 1, ScaleDivisor: 1, Cores: 1, EventsPerCore: 5}
	if err := WriteTrace(&buf, h, captureStreams(t, "web-search", 1, 1)); err != nil {
		t.Fatal(err)
	}
	_, sources, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sources[0].Next()
	}
	defer func() {
		if recover() == nil {
			t.Error("draining past the recorded length did not panic")
		}
	}()
	sources[0].Next()
}

func TestWriteTraceRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	src := captureStreams(t, "web-search", 1, 1)
	cases := []struct {
		name    string
		h       FileHeader
		sources []Source
	}{
		{"zero cores", FileHeader{ScaleDivisor: 1, Cores: 0, EventsPerCore: 1}, nil},
		{"zero events", FileHeader{ScaleDivisor: 1, Cores: 1, EventsPerCore: 0}, src},
		{"zero scale divisor", FileHeader{ScaleDivisor: 0, Cores: 1, EventsPerCore: 1}, src},
		{"source mismatch", FileHeader{ScaleDivisor: 1, Cores: 2, EventsPerCore: 1}, src},
		{"nil source", FileHeader{ScaleDivisor: 1, Cores: 1, EventsPerCore: 1}, []Source{nil}},
	}
	for _, c := range cases {
		if err := WriteTrace(&buf, c.h, c.sources); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestReadTraceRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	h := FileHeader{Profile: "tpch", Seed: 3, ScaleDivisor: 32, Cores: 2, EventsPerCore: 300}
	if err := WriteTrace(&buf, h, captureStreams(t, "tpch", 3, 2)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, _, err := ReadTrace(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ReadTrace(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	trailing := append(append([]byte{}, good...), 0xff)
	if _, _, err := ReadTrace(bytes.NewReader(trailing)); err == nil {
		t.Error("trailing bytes accepted")
	}
	wrongVersion := append([]byte{}, good...)
	wrongVersion[4] = 99 // the version uvarint directly follows the magic
	if _, _, err := ReadTrace(bytes.NewReader(wrongVersion)); err == nil {
		t.Error("unsupported version accepted")
	}
}

// listSource replays a fixed list of events.
type listSource struct {
	evs []Event
	i   int
}

func (s *listSource) Next() Event {
	ev := s.evs[s.i]
	s.i++
	return ev
}

// TestReadTraceRejectsAddressAboveLimit: a capture holding an address at
// or above MaxWorkingSetBytes fails ReadTrace's validation pass, so it can
// never reach a design mid-replay; the last block below the limit passes.
func TestReadTraceRejectsAddressAboveLimit(t *testing.T) {
	for _, c := range []struct {
		addr mem.Addr
		ok   bool
	}{
		{MaxWorkingSetBytes - mem.BlockSize, true},
		{MaxWorkingSetBytes, false},
		{1 << 62, false},
	} {
		src := &listSource{evs: []Event{{Gap: 3, Addr: 64, PC: 5}, {Gap: 1, Addr: c.addr, PC: 9, Write: true}}}
		var buf bytes.Buffer
		h := FileHeader{Profile: "limit", Seed: 1, ScaleDivisor: 1, Cores: 1, EventsPerCore: 2}
		if err := WriteTrace(&buf, h, []Source{src}); err != nil {
			t.Fatal(err)
		}
		_, sources, err := ReadTrace(&buf)
		if !c.ok {
			if err == nil {
				t.Errorf("address %#x accepted", uint64(c.addr))
			}
			continue
		}
		if err != nil {
			t.Fatalf("address %#x rejected: %v", uint64(c.addr), err)
		}
		sources[0].Next()
		if ev := sources[0].Next(); ev.Addr != c.addr {
			t.Errorf("replayed address %#x, want %#x", uint64(ev.Addr), uint64(c.addr))
		}
	}
}
