//! Statistical special functions needed by the LSH baselines.
//!
//! C2LSH/QALSH derive their hash-function count `m` and collision threshold
//! `l` from collision probabilities of 2-stable projections (normal CDF);
//! SRS's early-termination test evaluates a chi-squared CDF. No math crate
//! is available offline, so the standard numerical recipes are implemented
//! here: Abramowitz–Stegun `erf`, and the regularized lower incomplete gamma
//! via series / continued-fraction evaluation.

/// Error function, Abramowitz & Stegun 7.1.26 (|error| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF Φ(x).
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// ln Γ(x) by the Lanczos approximation (g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma P(a, x) = γ(a, x)/Γ(a).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series expansion.
        let mut sum = 1.0 / a;
        let mut term = sum;
        let mut ap = a;
        for _ in 0..300 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a,x), then P = 1 − Q (Lentz's method).
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..300 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        1.0 - h * (-x + a * x.ln() - ln_gamma(a)).exp()
    }
}

/// Chi-squared CDF with `k` degrees of freedom: ψ_k(x).
pub fn chi2_cdf(x: f64, k: usize) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        gamma_p(k as f64 / 2.0, x / 2.0)
    }
}

/// Collision probability of two points at distance `s` under a floor-bucket
/// p-stable hash with bucket width `w` (Datar et al., SCG 2004, Eq. for
/// p(s) with the Gaussian 2-stable distribution):
/// `p(s) = 1 − 2Φ(−w/s) − (2s/(√(2π) w)) (1 − e^{−w²/(2s²)})`.
pub fn p_stable_collision(w: f64, s: f64) -> f64 {
    if s <= 0.0 {
        return 1.0;
    }
    let r = w / s;
    1.0 - 2.0 * norm_cdf(-r)
        - 2.0 / ((2.0 * std::f64::consts::PI).sqrt() * r) * (1.0 - (-r * r / 2.0).exp())
}

/// QALSH's query-centered collision probability for distance `s` and bucket
/// half-width `w/2`: `p(s) = 2Φ(w/(2s)) − 1`.
pub fn qalsh_collision(w: f64, s: f64) -> f64 {
    if s <= 0.0 {
        return 1.0;
    }
    2.0 * norm_cdf(w / (2.0 * s)) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // A&S 7.1.26 has |error| ≤ 1.5e-7 (even at 0).
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn norm_cdf_reference_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n−1)!
        assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-10);
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn chi2_cdf_known_quantiles() {
        // χ²₁: P(X ≤ 3.841) ≈ 0.95; χ²₆: P(X ≤ 12.592) ≈ 0.95.
        assert!((chi2_cdf(3.841, 1) - 0.95).abs() < 1e-3);
        assert!((chi2_cdf(12.592, 6) - 0.95).abs() < 1e-3);
        assert_eq!(chi2_cdf(0.0, 3), 0.0);
        assert!((chi2_cdf(1e9, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chi2_cdf_monotone() {
        let mut prev = 0.0;
        for i in 1..100 {
            let v = chi2_cdf(i as f64 * 0.5, 6);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn collision_probability_decreases_with_distance() {
        let p1 = p_stable_collision(1.0, 1.0);
        let p2 = p_stable_collision(1.0, 2.0);
        assert!(p1 > p2, "closer points must collide more: {p1} vs {p2}");
        assert!(p1 > 0.0 && p1 < 1.0);
        let q1 = qalsh_collision(2.719, 1.0);
        let q2 = qalsh_collision(2.719, 2.0);
        assert!(q1 > q2);
    }
}
