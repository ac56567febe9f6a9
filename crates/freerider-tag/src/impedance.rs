//! The antenna impedance bank and reflection coefficients.
//!
//! §2.1 of the paper: backscattered signal strength is a function of
//! `Γ = (Z_T − Z_A*) / (Z_A + Z_T)` where `Z_A` is the antenna impedance
//! and `Z_T` the terminating impedance. Traditional tags switch between
//! `Z_T = Z_A` (matched, absorb → Γ=0) and `Z_T = 0` (short, reflect →
//! |Γ|=1); FreeRider's tag switches across *multiple* impedances to fine
//! tune the backscattered amplitude.

use freerider_dsp::Complex;

/// A complex impedance in ohms.
pub type Impedance = Complex;

/// Reflection coefficient for a terminating impedance `zt` on an antenna
/// of impedance `za`: `Γ = (Z_T − Z_A*) / (Z_A + Z_T)`.
pub fn reflection_coefficient(za: Impedance, zt: Impedance) -> Complex {
    (zt - za.conj()) / (za + zt)
}

/// A bank of terminating impedances selectable by the tag's RF switch.
#[derive(Debug, Clone)]
pub struct ImpedanceBank {
    antenna: Impedance,
    states: Vec<Impedance>,
}

impl ImpedanceBank {
    /// Creates a bank for an antenna of impedance `antenna`.
    ///
    /// # Panics
    /// Panics if `states` is empty.
    pub fn new(antenna: Impedance, states: Vec<Impedance>) -> Self {
        assert!(!states.is_empty(), "need at least one impedance state");
        ImpedanceBank { antenna, states }
    }

    /// Number of selectable states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the bank is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Γ for state `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn gamma(&self, idx: usize) -> Complex {
        reflection_coefficient(self.antenna, self.states[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_load_absorbs() {
        let g = reflection_coefficient(Complex::new(50.0, 0.0), Complex::new(50.0, 0.0));
        assert!(g.abs() < 1e-12);
    }

    #[test]
    fn short_reflects_fully_inverted() {
        let g = reflection_coefficient(Complex::new(50.0, 0.0), Complex::ZERO);
        assert!((g.abs() - 1.0).abs() < 1e-12);
        assert!((g.arg().abs() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn open_reflects_fully_in_phase() {
        let g = reflection_coefficient(Complex::new(50.0, 0.0), Complex::new(1e12, 0.0));
        assert!((g.re - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reactive_termination_rotates_phase() {
        // A purely reactive load reflects |Γ| = 1 at a nonzero angle —
        // the mechanism behind fine phase control.
        let g = reflection_coefficient(Complex::new(50.0, 0.0), Complex::new(0.0, 50.0));
        assert!((g.abs() - 1.0).abs() < 1e-12);
        assert!(g.arg().abs() > 0.1 && g.arg().abs() < std::f64::consts::PI - 0.1);
    }

    #[test]
    fn binary_bank_has_absorb_and_reflect() {
        // The classic two-state tag on a 50 Ω antenna: matched, then short.
        let bank = ImpedanceBank::new(
            Complex::new(50.0, 0.0),
            vec![Complex::new(50.0, 0.0), Complex::ZERO],
        );
        assert_eq!(bank.len(), 2);
        assert!(bank.gamma(0).abs() < 1e-12);
        assert!((bank.gamma(1).abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn passivity() {
        // A passive termination can never reflect more than arrived.
        for r in [0.0, 10.0, 50.0, 200.0, 1e6] {
            for x in [-100.0, 0.0, 100.0] {
                let g = reflection_coefficient(Complex::new(50.0, 0.0), Complex::new(r, x));
                assert!(g.abs() <= 1.0 + 1e-9, "|Γ| = {} for {r}+{x}j", g.abs());
            }
        }
    }
}
