// Forecaster: the per-region demand model behind predictive bitstream
// prefetch. Arrivals are bucketed into fixed windows per app; at every
// window roll the region predicts the next window's demand and warms the
// bitstream caches of apps about to get traffic. Two predictors run side
// by side — an EWMA that tracks sustained demand, and the registry's own
// KRR machinery (internal/energy, the regressor the energy app serves)
// fitted autoregressively over the window history, which is what can see
// a periodic traffic wave *returning* to a region whose recent windows
// are all zero. The forecast is the union (max) of the two: EWMA catches
// ramps the moment they start, KRR catches revisits before they start,
// and a false positive only costs prefetch bandwidth off the critical
// path.
package region

import (
	"math"

	"everest/internal/energy"
	"everest/internal/tensor"
)

// Forecaster buckets per-app arrivals into fixed modelled-time windows
// and predicts the next window's count per app. It is driven entirely by
// modelled time from a single goroutine (the federation's serving path),
// so it needs no locking, and every prediction is deterministic.
type Forecaster struct {
	window  float64 // window length, modelled seconds
	alpha   float64 // EWMA smoothing factor
	lag     int     // autoregressive features: the last lag window counts
	minFit  int     // closed windows per app before the KRR engages
	maxHist int     // history cap (bounds fit cost)

	cur    int64 // current open window index
	counts map[string]float64
	hist   map[string][]float64
	ewma   map[string]float64
	apps   []string // first-observed order: deterministic iteration
}

// NewForecaster returns a forecaster over windows of the given modelled
// length. alpha is the EWMA smoothing factor; lag is the autoregressive
// feature depth of the KRR (it must cover a full period of any traffic
// pattern the forecaster should anticipate).
func NewForecaster(window, alpha float64, lag int) *Forecaster {
	if window <= 0 {
		window = 0.25
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if lag < 2 {
		lag = 16
	}
	return &Forecaster{
		window: window, alpha: alpha, lag: lag,
		minFit: lag + 4, maxHist: 8 * lag,
		counts: make(map[string]float64),
		hist:   make(map[string][]float64),
		ewma:   make(map[string]float64),
	}
}

// Window returns the window length in modelled seconds.
func (f *Forecaster) Window() float64 { return f.window }

// Apps returns the observed apps in first-seen order.
func (f *Forecaster) Apps() []string { return f.apps }

// Observe records one arrival of app at modelled time t, closing any
// windows t has moved past.
func (f *Forecaster) Observe(app string, t float64) {
	f.RollTo(t)
	if _, ok := f.counts[app]; !ok {
		f.apps = append(f.apps, app)
		f.hist[app] = nil
		f.ewma[app] = 0
	}
	f.counts[app]++
}

// RollTo closes every window that ends at or before modelled time t,
// appending counts (zeros for empty windows — absence is signal) and
// updating the EWMAs.
func (f *Forecaster) RollTo(t float64) {
	idx := int64(math.Floor(t / f.window))
	for f.cur < idx {
		for _, app := range f.apps {
			c := f.counts[app]
			f.hist[app] = append(f.hist[app], c)
			if len(f.hist[app]) > f.maxHist {
				f.hist[app] = f.hist[app][len(f.hist[app])-f.maxHist:]
			}
			f.ewma[app] = f.alpha*c + (1-f.alpha)*f.ewma[app]
			f.counts[app] = 0
		}
		f.cur++
	}
}

// Predict returns the expected arrivals of app in the next window: the
// max of the EWMA baseline and, once enough history exists, the KRR
// autoregression. Falls back to the EWMA whenever the fit or prediction
// fails, and never returns a negative demand.
func (f *Forecaster) Predict(app string) float64 {
	base := f.ewma[app]
	hist := f.hist[app]
	if len(hist) >= f.minFit {
		if krr, err := f.fitPredict(hist); err == nil && krr > base {
			base = krr
		}
	}
	if base < 0 {
		return 0
	}
	return base
}

// fitPredict fits a KRR on lagged window counts and predicts the next
// window from the most recent lag counts.
func (f *Forecaster) fitPredict(hist []float64) (float64, error) {
	n := len(hist) - f.lag
	x := tensor.New(n, f.lag)
	xd := x.Data()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		copy(xd[i*f.lag:(i+1)*f.lag], hist[i:i+f.lag])
		y[i] = hist[i+f.lag]
	}
	k := energy.DefaultKRR()
	if err := k.Fit(x, y); err != nil {
		return 0, err
	}
	feat := make([]float64, f.lag)
	copy(feat, hist[len(hist)-f.lag:])
	return k.Predict(feat)
}
