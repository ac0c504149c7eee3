// Package energy implements the renewable-energy prediction use case (paper
// §II-B): forecasting the power generated by a wind farm from WRF-derived
// weather forecasts plus historical farm data, using Kernel Ridge Regression
// ("the current version of the application uses the Kernel Ridge
// algorithm"), evaluated in a backtesting scenario (§VIII).
package energy

import (
	"fmt"
	"math"
	"math/rand"

	"everest/internal/tensor"
)

// Turbine is one wind turbine's power curve.
type Turbine struct {
	CutInMS   float64 // below: no power
	RatedMS   float64 // above: rated power
	CutOutMS  float64 // above: shutdown
	RatedKW   float64
	Available bool
}

// Power returns the produced power (kW) at hub-height wind speed ws.
func (t Turbine) Power(ws float64) float64 {
	if !t.Available || ws < t.CutInMS || ws >= t.CutOutMS {
		return 0
	}
	if ws >= t.RatedMS {
		return t.RatedKW
	}
	// Cubic region between cut-in and rated.
	frac := (ws*ws*ws - t.CutInMS*t.CutInMS*t.CutInMS) /
		(t.RatedMS*t.RatedMS*t.RatedMS - t.CutInMS*t.CutInMS*t.CutInMS)
	return t.RatedKW * frac
}

// Farm is a wind farm: turbines plus site effects.
type Farm struct {
	Turbines []Turbine
	// HeightShear scales the 10m forecast wind to hub height (power law).
	HeightShear float64
}

// NewFarm builds a uniform farm of n 2MW turbines.
func NewFarm(n int) *Farm {
	f := &Farm{HeightShear: 1.34} // (100m/10m)^0.143 power-law factor
	for i := 0; i < n; i++ {
		f.Turbines = append(f.Turbines, Turbine{
			CutInMS: 3, RatedMS: 12, CutOutMS: 25, RatedKW: 2000, Available: true,
		})
	}
	return f
}

// Power returns farm output (kW) for a 10m wind speed.
func (f *Farm) Power(ws10 float64) float64 {
	hub := ws10 * f.HeightShear
	total := 0.0
	for _, t := range f.Turbines {
		total += t.Power(hub)
	}
	return total
}

// Sample is one hourly observation of the backtesting data set.
type Sample struct {
	Hour         int     // hour index from epoch
	ForecastWS   float64 // WRF-forecast 10m wind speed (m/s)
	ForecastDir  float64 // forecast wind direction (rad)
	ActualWS     float64 // measured wind speed
	PowerKW      float64 // measured farm output
	Availability float64 // fraction of turbines available
}

// Dataset is one year (or any span) of hourly samples.
type Dataset struct {
	Farm    *Farm
	Samples []Sample
}

// SynthesizeYear generates `hours` of correlated synthetic weather and farm
// history: a seasonal + diurnal wind-speed signal with autoregressive noise,
// imperfect forecasts (bias + noise), and occasional turbine outages. This
// is the paper's "historical datasets of the wind farm ... at least one year
// of data" substitute.
func SynthesizeYear(seed int64, hours int, farm *Farm) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{Farm: farm}
	ar := 0.0
	for h := 0; h < hours; h++ {
		seasonal := 7 + 2.5*math.Sin(2*math.Pi*float64(h)/(24*365)*4)
		diurnal := 1.5 * math.Sin(2*math.Pi*float64(h%24)/24)
		ar = 0.85*ar + rng.NormFloat64()*1.2
		actual := math.Max(0, seasonal+diurnal+ar)

		forecastErr := 0.4*rng.NormFloat64() + 0.3 // slight high bias
		forecast := math.Max(0, actual+forecastErr)

		avail := 1.0
		if rng.Float64() < 0.02 {
			avail = 1 - float64(1+rng.Intn(3))/float64(len(farm.Turbines))
		}
		dir := math.Mod(2*math.Pi*float64(h)/500+rng.NormFloat64()*0.2, 2*math.Pi)

		power := farm.Power(actual) * avail * (0.97 + 0.03*rng.Float64())
		ds.Samples = append(ds.Samples, Sample{
			Hour: h, ForecastWS: forecast, ForecastDir: dir,
			ActualWS: actual, PowerKW: power, Availability: avail,
		})
	}
	return ds
}

// Features converts a sample into the regression feature vector: the
// wind-related parameters the paper describes ("combining deterministic
// weather forecasts, historical WRF time series, historical datasets of the
// wind farm, and real-time data"). The deterministic power-curve prediction
// itself is a feature, so the learner corrects the physical model rather
// than rediscovering it.
func Features(farm *Farm, s Sample) []float64 {
	return []float64{
		farm.Power(s.ForecastWS) * s.Availability,
		s.ForecastWS,
		s.ForecastWS * s.ForecastWS,
		math.Sin(s.ForecastDir), math.Cos(s.ForecastDir),
		math.Sin(2 * math.Pi * float64(s.Hour%24) / 24),
		math.Cos(2 * math.Pi * float64(s.Hour%24) / 24),
		s.Availability,
	}
}

// KRR is Kernel Ridge Regression with an RBF kernel.
type KRR struct {
	Lambda float64 // ridge regularization
	Gamma  float64 // RBF width
	x      *tensor.Tensor
	alpha  *tensor.Tensor
	yMean  float64
	scale  []float64
}

// NewKRR returns a regressor with the given hyperparameters.
func NewKRR(lambda, gamma float64) *KRR { return &KRR{Lambda: lambda, Gamma: gamma} }

// DefaultKRR returns the regressor with the hyperparameters selected by the
// backtesting sweep (λ=0.01, γ=0.05 on max-abs-scaled features).
func DefaultKRR() *KRR { return NewKRR(0.01, 0.05) }

// Fit solves (K + λI)α = y on the training matrix.
func (k *KRR) Fit(x *tensor.Tensor, y []float64) error {
	if x.Rank() != 2 || x.Shape()[0] != len(y) {
		return fmt.Errorf("energy: KRR training shape mismatch")
	}
	n, d := x.Shape()[0], x.Shape()[1]
	if n < 2 {
		return fmt.Errorf("energy: KRR needs at least 2 samples")
	}
	// Standardize features for a well-conditioned kernel.
	xd := x.Data()
	k.scale = make([]float64, d)
	for j := 0; j < d; j++ {
		m := 0.0
		for i := 0; i < n; i++ {
			m = math.Max(m, math.Abs(xd[i*d+j]))
		}
		if m == 0 {
			m = 1
		}
		k.scale[j] = m
	}
	xs := tensor.New(n, d)
	xsd := xs.Data()
	for i, v := range xd {
		xsd[i] = v / k.scale[i%d]
	}
	k.x = xs

	k.yMean = 0
	for _, v := range y {
		k.yMean += v
	}
	k.yMean /= float64(n)

	// The Gram matrix reads rows of xs in place, so a fit allocates the
	// same few buffers whatever n (TestKRRFitAllocsIndependentOfN).
	gram := tensor.New(n, n)
	g := gram.Data()
	for i := 0; i < n; i++ {
		ri := xsd[i*d : (i+1)*d]
		for j := i; j < n; j++ {
			v := k.rbf(ri, xsd[j*d:(j+1)*d])
			g[i*n+j] = v
			g[j*n+i] = v
		}
		g[i*n+i] += k.Lambda
	}
	rhs := tensor.New(n)
	r := rhs.Data()
	for i, v := range y {
		r[i] = v - k.yMean
	}
	alpha, err := tensor.SolveSPD(gram, rhs)
	if err != nil {
		return fmt.Errorf("energy: KRR solve: %w", err)
	}
	k.alpha = alpha
	return nil
}

func (k *KRR) rbf(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-k.Gamma * s)
}

// Predict returns the regression output for one feature vector.
func (k *KRR) Predict(feat []float64) (float64, error) {
	if k.alpha == nil {
		return 0, fmt.Errorf("energy: KRR not fitted")
	}
	if len(feat) != len(k.scale) {
		return 0, fmt.Errorf("energy: KRR expects %d features, got %d", len(k.scale), len(feat))
	}
	fs := make([]float64, len(feat))
	for j, v := range feat {
		fs[j] = v / k.scale[j]
	}
	d := len(fs)
	xd := k.x.Data()
	out := k.yMean
	for i, a := range k.alpha.Data() {
		out += a * k.rbf(fs, xd[i*d:(i+1)*d])
	}
	return out, nil
}

// BacktestResult reports forecast error per model (E12's table).
type BacktestResult struct {
	MAEKRR         float64 // kernel ridge
	MAELinear      float64 // ordinary least squares baseline
	MAEPersistence float64 // previous-day same-hour baseline
	MAEPhysical    float64 // power curve on forecast wind only
	TestHours      int
}

// Backtest trains on the first trainFrac of the data and evaluates MAE (kW)
// on the rest, comparing KRR against the baselines.
func Backtest(ds *Dataset, trainFrac float64, krr *KRR) (*BacktestResult, error) {
	n := len(ds.Samples)
	split := int(float64(n) * trainFrac)
	if split < 10 || n-split < 10 {
		return nil, fmt.Errorf("energy: not enough data to backtest (n=%d)", n)
	}
	d := len(Features(ds.Farm, ds.Samples[0]))
	xTrain := tensor.New(split, d)
	yTrain := make([]float64, split)
	for i := 0; i < split; i++ {
		f := Features(ds.Farm, ds.Samples[i])
		for j, v := range f {
			xTrain.Set(v, i, j)
		}
		yTrain[i] = ds.Samples[i].PowerKW
	}
	if err := krr.Fit(xTrain, yTrain); err != nil {
		return nil, err
	}
	lin, err := fitLinear(xTrain, yTrain)
	if err != nil {
		return nil, err
	}

	res := &BacktestResult{TestHours: n - split}
	for i := split; i < n; i++ {
		s := ds.Samples[i]
		truth := s.PowerKW
		f := Features(ds.Farm, s)

		pk, err := krr.Predict(f)
		if err != nil {
			return nil, err
		}
		res.MAEKRR += math.Abs(pk - truth)

		pl := lin.predict(f)
		res.MAELinear += math.Abs(pl - truth)

		// Persistence: same hour yesterday.
		if i >= 24 {
			res.MAEPersistence += math.Abs(ds.Samples[i-24].PowerKW - truth)
		}
		// Physical: power curve applied to the forecast wind.
		res.MAEPhysical += math.Abs(ds.Farm.Power(s.ForecastWS)*s.Availability - truth)
	}
	cnt := float64(n - split)
	res.MAEKRR /= cnt
	res.MAELinear /= cnt
	res.MAEPersistence /= cnt
	res.MAEPhysical /= cnt
	return res, nil
}

// linReg is the OLS baseline.
type linReg struct {
	w []float64
	b float64
}

func fitLinear(x *tensor.Tensor, y []float64) (*linReg, error) {
	n, d := x.Shape()[0], x.Shape()[1]
	// Normal equations with small ridge: (XᵀX + εI) w = Xᵀy.
	xtx := tensor.New(d+1, d+1)
	xty := tensor.New(d + 1)
	xd := x.Data()
	row := make([]float64, d+1)
	row[d] = 1
	for i := 0; i < n; i++ {
		copy(row, xd[i*d:(i+1)*d])
		for a := 0; a <= d; a++ {
			for b := 0; b <= d; b++ {
				xtx.Set(xtx.At(a, b)+row[a]*row[b], a, b)
			}
			xty.Set(xty.At(a)+row[a]*y[i], a)
		}
	}
	for a := 0; a <= d; a++ {
		xtx.Set(xtx.At(a, a)+1e-6, a, a)
	}
	w, err := tensor.SolveSPD(xtx, xty)
	if err != nil {
		return nil, err
	}
	lr := &linReg{w: make([]float64, d), b: w.At(d)}
	for j := 0; j < d; j++ {
		lr.w[j] = w.At(j)
	}
	return lr, nil
}

func (l *linReg) predict(f []float64) float64 {
	s := l.b
	for j, v := range f {
		s += l.w[j] * v
	}
	return s
}
