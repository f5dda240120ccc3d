package fleet

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestRetryDelaySchedule: the backoff schedule is a pure function of
// (policy, retry, draw) — asserted exactly, no clock involved.
func TestRetryDelaySchedule(t *testing.T) {
	p := RetryPolicy{
		Attempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second,
	}.withDefaults() // a draw of 0.5 is the jitter band's midpoint
	want := []time.Duration{
		50 * time.Millisecond,  // retry 1
		100 * time.Millisecond, // retry 2
		200 * time.Millisecond, // retry 3
		400 * time.Millisecond, // retry 4
		800 * time.Millisecond, // retry 5
		time.Second,            // retry 6: capped
		time.Second,            // retry 7: stays capped
	}
	for i, w := range want {
		if got := p.Delay(i+1, 0.5); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestRetryDelayJitterBounds: jitter spreads each delay symmetrically
// and never past the configured fraction.
func TestRetryDelayJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond}.withDefaults()
	if got := p.Delay(1, 0); got != 80*time.Millisecond {
		t.Errorf("rnd=0: %v, want 80ms (-20%%)", got)
	}
	if got := p.Delay(1, 0.5); got != 100*time.Millisecond {
		t.Errorf("rnd=0.5: %v, want 100ms (midpoint)", got)
	}
	// rnd draws are in [0,1): the top of the band is approached, never
	// exceeded.
	if got := p.Delay(1, 0.999999); got > 120*time.Millisecond {
		t.Errorf("rnd→1: %v exceeds +20%% band", got)
	}
}

// TestRetryDefaults: the zero policy is fully usable.
func TestRetryDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.Attempts != 4 || p.BaseDelay != 50*time.Millisecond || p.MaxDelay != time.Second {
		t.Errorf("unexpected defaults: %+v", p)
	}
}

// TestRetryableStatus: 5xx and throttling retry; client errors are
// permanent (a 409 conflict or 422 rejection never resolves by
// retrying).
func TestRetryableStatus(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusInternalServerError:   true,
		http.StatusBadGateway:            true,
		http.StatusServiceUnavailable:    true,
		http.StatusTooManyRequests:       true,
		http.StatusRequestTimeout:        true,
		http.StatusOK:                    false,
		http.StatusBadRequest:            false,
		http.StatusNotFound:              false,
		http.StatusConflict:              false,
		http.StatusUnprocessableEntity:   false,
		http.StatusRequestEntityTooLarge: false,
	} {
		if got := retryableStatus(code); got != want {
			t.Errorf("retryableStatus(%d) = %v, want %v", code, got, want)
		}
	}
}

// TestSleepCancel: a cancelled context cuts a pending backoff short.
func TestSleepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Sleep(ctx, time.Minute)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("sleep ignored cancellation (took %v)", elapsed)
	}
	Sleep(ctx, 0) // no-op, must not panic
}
