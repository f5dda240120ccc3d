// Retry policy: exponential backoff with a cap and symmetric jitter.
// The delay schedule is a pure function of (policy, attempt, random
// draw), so tests assert exact schedules without sleeping; the
// controller injects the draws from its own seeded stream.
package fleet

import (
	"context"
	"errors"
	"net/http"
	"time"

	"planp.dev/planp/internal/planpd"
)

// Each retry waits backoffFactor times longer than the last, and every
// delay is spread by ±backoffJitter of itself (uniformly in
// [0.8d, 1.2d]) so a fleet's retries do not arrive in lockstep.
const (
	backoffFactor = 2
	backoffJitter = 0.2
)

// RetryPolicy controls per-request retries against one node.
type RetryPolicy struct {
	// Attempts is the total number of tries per request, including the
	// first (default 4).
	Attempts int
	// BaseDelay is the backoff before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 1s).
	MaxDelay time.Duration
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// Delay returns the backoff before retry number retry (1-based: the
// delay after the first failed attempt is Delay(1, ·)). rnd is a
// uniform draw from [0, 1) supplying the jitter.
func (p RetryPolicy) Delay(retry int, rnd float64) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < retry && d < float64(p.MaxDelay); i++ {
		d *= backoffFactor
	}
	d = min(d, float64(p.MaxDelay))
	return time.Duration(d * (1 + backoffJitter*(2*rnd-1)))
}

// retryableStatus reports whether an HTTP status is worth retrying:
// server-side trouble and throttling are; client errors (including 409
// conflicts and 422 verification rejections) are permanent.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests || code == http.StatusRequestTimeout
}

// retryable reports whether a failed exchange is worth another attempt:
// the node's answer never arrived whole (planpd.ErrNoAnswer: the
// transport failed, or the body was cut short or ran over the bound),
// or it carries a retryable status. Any other rejection, and a 2xx that
// does not decode, is the node's final word.
func retryable(err error) bool {
	var rej *planpd.DiagError
	return errors.Is(err, planpd.ErrNoAnswer) || errors.As(err, &rej) && retryableStatus(rej.Status)
}

// Sleep waits for d or until ctx is done. It is what the fleet and
// adaptation controllers' sleep hooks default to; tests replace the
// hooks so retry storms and observation windows cost no wall-clock time.
func Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
