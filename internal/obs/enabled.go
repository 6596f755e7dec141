//go:build !obsoff

package obs

// compiledIn is true in default builds. Building with -tags obsoff turns it
// into a false constant, so every Enabled() check — and the recording code
// behind it — is eliminated by the compiler: the no-op baseline for
// measuring the instrumentation's overhead.
const compiledIn = true
