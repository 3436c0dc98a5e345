// Package tracking implements imm_ukf_pda_tracker: multi-object
// tracking with an Interacting Multiple Model bank of Unscented Kalman
// Filters (constant velocity / constant turn-rate / random motion) and
// Probabilistic Data Association, following the structure of Autoware's
// tracker and the works it cites.
package tracking

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// State indices of the CTRV state vector [x, y, v, yaw, yawRate].
const (
	ix = iota
	iy
	iv
	iyaw
	iyawd
	stateDim
)

// measDim is the measurement dimension: observed (x, y) position.
const measDim = 2

// numSigma is the unscented transform's sigma-point count, 2n+1.
const numSigma = 2*stateDim + 1

// Motion model identifiers of the IMM bank.
const (
	ModelCV   = iota // constant velocity (turn rate damped to zero)
	ModelCTRV        // constant turn rate and velocity
	ModelRM          // random motion (velocity damped, high noise)
	numModels
)

// ModelName returns a printable model name.
func ModelName(m int) string {
	switch m {
	case ModelCV:
		return "CV"
	case ModelCTRV:
		return "CTRV"
	case ModelRM:
		return "RM"
	default:
		return fmt.Sprintf("model%d", m)
	}
}

// UKF is one unscented Kalman filter over the CTRV state. All of its
// algebra runs on fixed-size arrays, so a filter step never allocates
// and copying a UKF value copies the whole filter.
type UKF struct {
	X [stateDim]float64           // state
	P [stateDim][stateDim]float64 // covariance
	// Process noise spectral densities.
	stdA    float64 // longitudinal acceleration noise
	stdYawd float64 // yaw acceleration noise
	// Model behavior switches.
	model int
	// Sigma point weights.
	lambda float64
	wm, wc [numSigma]float64
	// FPOps accumulates an architectural op estimate for work modeling.
	FPOps float64
}

var (
	errFactorization = errors.New("tracking: sigma-point factorization failed: covariance not positive definite")
	errSingularS     = errors.New("tracking: singular innovation covariance")
)

// NewUKF creates a filter for the given model, initialized at a
// position with a generous prior.
func NewUKF(model int, pos geom.Vec2) UKF {
	u := UKF{model: model}
	u.X[ix] = pos.X
	u.X[iy] = pos.Y
	u.P[ix][ix] = 1
	u.P[iy][iy] = 1
	u.P[iv][iv] = 16 // unknown speed up to ~8 m/s within 2 sigma
	u.P[iyaw][iyaw] = math.Pi * math.Pi
	u.P[iyawd][iyawd] = 0.3
	switch model {
	case ModelCV:
		u.stdA, u.stdYawd = 1.5, 0.05
	case ModelCTRV:
		u.stdA, u.stdYawd = 0.8, 0.6
	case ModelRM:
		u.stdA, u.stdYawd = 4.0, 1.5
	default:
		panic("tracking: unknown model")
	}
	// Unscented-transform spread: kappa = 2 keeps every sigma weight
	// positive for the 5-state filter, which makes the reconstructed
	// covariance positive semidefinite by construction (the classic
	// lambda = 3 - n choice goes negative for n > 3 and lets the
	// covariance drift indefinite over long prediction sequences).
	u.lambda = 2
	u.wm[0] = u.lambda / (u.lambda + float64(stateDim))
	u.wc[0] = u.wm[0]
	for i := 1; i < numSigma; i++ {
		u.wm[i] = 0.5 / (u.lambda + float64(stateDim))
		u.wc[i] = u.wm[i]
	}
	return u
}

// sigmaPoints writes the 2n+1 unscented points of (X, P) into pts.
func (u *UKF) sigmaPoints(pts *[numSigma][stateDim]float64) error {
	scaled := u.P
	spread := u.lambda + float64(stateDim)
	for r := range scaled {
		for c := range scaled[r] {
			scaled[r][c] *= spread
		}
	}
	var l [stateDim][stateDim]float64
	ok := false
	for jitter := 0.0; jitter < 1; jitter = jitter*10 + 1e-9 {
		p := scaled
		if jitter > 0 {
			for i := range p {
				p[i][i] += jitter
			}
		}
		if l, ok = cholesky(&p); ok {
			break
		}
	}
	if !ok {
		return errFactorization
	}
	pts[0] = u.X
	for i := 0; i < stateDim; i++ {
		for r := 0; r < stateDim; r++ {
			pts[1+i][r] = u.X[r] + l[r][i]
			pts[1+stateDim+i][r] = u.X[r] - l[r][i]
		}
	}
	u.FPOps += float64(stateDim*stateDim*stateDim) + float64(4*stateDim*stateDim)
	return nil
}

// propagate advances one sigma point by dt under the filter's model.
func (u *UKF) propagate(p *[stateDim]float64, dt float64) {
	x, y := p[ix], p[iy]
	v, yaw, yawd := p[iv], p[iyaw], p[iyawd]
	switch u.model {
	case ModelCV:
		yawd = 0
	case ModelRM:
		v *= math.Exp(-dt) // velocity decays; motion is noise-driven
	}
	var nx, ny float64
	if math.Abs(yawd) > 1e-4 {
		nx = x + v/yawd*(math.Sin(yaw+yawd*dt)-math.Sin(yaw))
		ny = y + v/yawd*(-math.Cos(yaw+yawd*dt)+math.Cos(yaw))
	} else {
		nx = x + v*dt*math.Cos(yaw)
		ny = y + v*dt*math.Sin(yaw)
	}
	*p = [stateDim]float64{nx, ny, v, geom.WrapAngle(yaw + yawd*dt), yawd}
	u.FPOps += 40
}

// Predict advances the filter by dt seconds.
func (u *UKF) Predict(dt float64) error {
	var pts [numSigma][stateDim]float64
	if err := u.sigmaPoints(&pts); err != nil {
		return err
	}
	for i := range pts {
		u.propagate(&pts[i], dt)
	}
	// Reconstruct mean with angular care on yaw.
	var mean [stateDim]float64
	var sinSum, cosSum float64
	for i := range pts {
		p := &pts[i]
		for r := 0; r < stateDim; r++ {
			if r == iyaw {
				continue
			}
			mean[r] += u.wm[i] * p[r]
		}
		sinSum += u.wm[i] * math.Sin(p[iyaw])
		cosSum += u.wm[i] * math.Cos(p[iyaw])
	}
	mean[iyaw] = math.Atan2(sinSum, cosSum)
	// Covariance.
	var cov [stateDim][stateDim]float64
	for i := range pts {
		d := stateDiff(&pts[i], &mean)
		for r := 0; r < stateDim; r++ {
			for c := 0; c < stateDim; c++ {
				cov[r][c] += u.wc[i] * d[r] * d[c]
			}
		}
	}
	// Additive process noise (discretized).
	dt2 := dt * dt
	qa := u.stdA * u.stdA
	qy := u.stdYawd * u.stdYawd
	cov[ix][ix] += 0.25 * dt2 * dt2 * qa
	cov[iy][iy] += 0.25 * dt2 * dt2 * qa
	cov[iv][iv] += dt2 * qa
	cov[iyaw][iyaw] += 0.25 * dt2 * dt2 * qy
	cov[iyawd][iyawd] += dt2 * qy
	symmetrize(&cov)
	u.X = mean
	u.P = cov
	u.FPOps += float64((2*stateDim + 1) * stateDim * stateDim * 2)
	return nil
}

// MeasurementPrediction holds the predicted measurement distribution
// and the cross covariance needed for the update.
type MeasurementPrediction struct {
	Z    [measDim]float64          // predicted measurement mean
	S    [measDim][measDim]float64 // innovation covariance
	SInv [measDim][measDim]float64
	T    [stateDim][measDim]float64 // cross covariance
}

// PredictMeasurement projects the current belief into measurement space
// with measurement noise stdMeas.
func (u *UKF) PredictMeasurement(stdMeas float64) (MeasurementPrediction, error) {
	var mp MeasurementPrediction
	var pts [numSigma][stateDim]float64
	if err := u.sigmaPoints(&pts); err != nil {
		return mp, err
	}
	for i := range pts {
		mp.Z[0] += u.wm[i] * pts[i][ix]
		mp.Z[1] += u.wm[i] * pts[i][iy]
	}
	for i := range pts {
		dz := [measDim]float64{pts[i][ix] - mp.Z[0], pts[i][iy] - mp.Z[1]}
		dx := stateDiff(&pts[i], &u.X)
		for r := 0; r < measDim; r++ {
			for c := 0; c < measDim; c++ {
				mp.S[r][c] += u.wc[i] * dz[r] * dz[c]
			}
		}
		for r := 0; r < stateDim; r++ {
			for c := 0; c < measDim; c++ {
				mp.T[r][c] += u.wc[i] * dx[r] * dz[c]
			}
		}
	}
	mp.S[0][0] += stdMeas * stdMeas
	mp.S[1][1] += stdMeas * stdMeas
	var ok bool
	if mp.SInv, ok = inverse2(mp.S); !ok {
		return mp, errSingularS
	}
	u.FPOps += float64((2*stateDim + 1) * (measDim*measDim + stateDim*measDim) * 2)
	return mp, nil
}

// UpdatePDA applies a probabilistic data association update with gated
// measurements zs and their association weights beta (len(zs)+1
// entries, last is the no-detection weight). It returns the combined
// measurement likelihood for IMM model probability updates.
func (u *UKF) UpdatePDA(mp *MeasurementPrediction, zs [][measDim]float64, beta []float64) float64 {
	if len(beta) != len(zs)+1 {
		panic("tracking: beta length mismatch")
	}
	k := mulGain(&mp.T, &mp.SInv) // Kalman gain
	// Combined innovation.
	var nu [measDim]float64
	for i, z := range zs {
		for r := range nu {
			nu[r] += (z[r] - mp.Z[r]) * beta[i]
		}
	}
	// Spread-of-innovations term for the PDA covariance.
	var spread [measDim][measDim]float64
	for i, z := range zs {
		d := [measDim]float64{z[0] - mp.Z[0], z[1] - mp.Z[1]}
		for r := 0; r < measDim; r++ {
			for c := 0; c < measDim; c++ {
				spread[r][c] += beta[i] * d[r] * d[c]
			}
		}
	}
	for r := 0; r < measDim; r++ {
		for c := 0; c < measDim; c++ {
			spread[r][c] += -nu[r] * nu[c]
		}
	}
	dx := gainTimes(&k, &nu)
	for r := range u.X {
		u.X[r] += dx[r]
	}
	u.X[iyaw] = geom.WrapAngle(u.X[iyaw])
	b0 := beta[len(beta)-1]
	ks := mulGain(&k, &mp.S)
	shrink := gainOuter(&ks, &k)
	scale := 1 - b0
	ksp := mulGain(&k, &spread)
	grow := gainOuter(&ksp, &k)
	pc := u.P
	for r := range pc {
		for c := range pc[r] {
			pc[r][c] -= shrink[r][c] * scale
		}
	}
	for r := range pc {
		for c := range pc[r] {
			pc[r][c] += grow[r][c]
		}
	}
	symmetrize(&pc)
	for i := range pc {
		pc[i][i] += 1e-9
	}
	u.P = pc
	u.FPOps += 400

	// Mean gated likelihood (for IMM).
	like := 1e-12
	for _, z := range zs {
		m := mahalanobis2(z, mp)
		det := mp.S[0][0]*mp.S[1][1] - mp.S[0][1]*mp.S[1][0]
		if det > 0 {
			like += math.Exp(-0.5*m) / (2 * math.Pi * math.Sqrt(det))
		}
	}
	return like
}

// Pos returns the estimated position.
func (u *UKF) Pos() geom.Vec2 { return geom.V2(u.X[ix], u.X[iy]) }

// Speed returns the estimated scalar speed.
func (u *UKF) Speed() float64 { return u.X[iv] }

// Yaw returns the estimated heading.
func (u *UKF) Yaw() float64 { return u.X[iyaw] }

// YawRate returns the estimated turn rate.
func (u *UKF) YawRate() float64 { return u.X[iyawd] }

// The fixed-size algebra below evaluates in the same floating-point
// order as the dense row-major routines of mathx.Mat: products
// accumulate k-outer and skip zero left-hand entries, and the Cholesky
// factor and the Gauss-Jordan inverse pivot and eliminate in the same
// sequence, so the filters compute bit-identical results to the dense
// formulation.

// stateDiff returns a - b with the yaw component wrapped.
func stateDiff(a, b *[stateDim]float64) [stateDim]float64 {
	var d [stateDim]float64
	for r := range d {
		d[r] = a[r] - b[r]
	}
	d[iyaw] = geom.WrapAngle(d[iyaw])
	return d
}

// cholesky returns the lower-triangular L with L*Lᵀ = m, or false when
// m is not positive definite.
func cholesky(m *[stateDim][stateDim]float64) (l [stateDim][stateDim]float64, ok bool) {
	for i := 0; i < stateDim; i++ {
		for j := 0; j <= i; j++ {
			sum := m[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return l, false
				}
				l[i][j] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, true
}

// inverse2 inverts a measurement-space matrix by Gauss-Jordan
// elimination with partial pivoting; ok is false when it is singular.
func inverse2(m [measDim][measDim]float64) (inv [measDim][measDim]float64, ok bool) {
	const n = measDim
	a := m
	for i := 0; i < n; i++ {
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs < 1e-14 {
			return inv, false
		}
		if pivot != col {
			a[pivot], a[col] = a[col], a[pivot]
			inv[pivot], inv[col] = inv[col], inv[pivot]
		}
		p := a[col][col]
		for j := 0; j < n; j++ {
			a[col][j] = a[col][j] / p
			inv[col][j] = inv[col][j] / p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a[r][j] += -f * a[col][j]
				inv[r][j] += -f * inv[col][j]
			}
		}
	}
	return inv, true
}

// symmetrize averages a covariance with its transpose in place, the
// standard fix for drift in Kalman-style updates.
func symmetrize(m *[stateDim][stateDim]float64) {
	for i := 0; i < stateDim; i++ {
		for j := i + 1; j < stateDim; j++ {
			v := (m[i][j] + m[j][i]) / 2
			m[i][j] = v
			m[j][i] = v
		}
	}
}

// mulGain returns g * m for a state-by-measurement g.
func mulGain(g *[stateDim][measDim]float64, m *[measDim][measDim]float64) [stateDim][measDim]float64 {
	var out [stateDim][measDim]float64
	for i := 0; i < stateDim; i++ {
		for k := 0; k < measDim; k++ {
			a := g[i][k]
			if a == 0 {
				continue
			}
			for j := 0; j < measDim; j++ {
				out[i][j] += a * m[k][j]
			}
		}
	}
	return out
}

// gainOuter returns g * kᵀ for two state-by-measurement matrices.
func gainOuter(g, k *[stateDim][measDim]float64) [stateDim][stateDim]float64 {
	var out [stateDim][stateDim]float64
	for i := 0; i < stateDim; i++ {
		for kk := 0; kk < measDim; kk++ {
			a := g[i][kk]
			if a == 0 {
				continue
			}
			for j := 0; j < stateDim; j++ {
				out[i][j] += a * k[j][kk]
			}
		}
	}
	return out
}

// gainTimes returns g * v.
func gainTimes(g *[stateDim][measDim]float64, v *[measDim]float64) [stateDim]float64 {
	var out [stateDim]float64
	for i := 0; i < stateDim; i++ {
		for k := 0; k < measDim; k++ {
			a := g[i][k]
			if a == 0 {
				continue
			}
			out[i] += a * v[k]
		}
	}
	return out
}

// mahalanobis2 returns dᵀ S⁻¹ d for the innovation d = z - Z, evaluated
// as (dᵀ S⁻¹) d.
func mahalanobis2(z [measDim]float64, mp *MeasurementPrediction) float64 {
	d := [measDim]float64{z[0] - mp.Z[0], z[1] - mp.Z[1]}
	var row [measDim]float64
	for k := 0; k < measDim; k++ {
		a := d[k]
		if a == 0 {
			continue
		}
		for j := 0; j < measDim; j++ {
			row[j] += a * mp.SInv[k][j]
		}
	}
	m := 0.0
	for k := 0; k < measDim; k++ {
		a := row[k]
		if a == 0 {
			continue
		}
		m += a * d[k]
	}
	return m
}
