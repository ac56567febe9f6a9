//! Log-distance path loss and floor-plan wall attenuation.

/// Log-distance path-loss model:
/// `PL(d) = PL₀ + 10·n·log₁₀(d / 1 m)` (dB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLoss {
    /// Reference loss at 1 m, dB.
    pub pl0_db: f64,
    /// Path-loss exponent. Hallways behave like lossy waveguides
    /// (n < 2); cluttered NLOS paths run higher.
    pub exponent: f64,
}

impl PathLoss {
    /// Creates a model.
    ///
    /// # Panics
    /// Panics if `exponent <= 0` or `pl0_db < 0`.
    pub fn new(pl0_db: f64, exponent: f64) -> Self {
        assert!(exponent > 0.0, "path-loss exponent must be positive");
        assert!(pl0_db >= 0.0, "reference loss must be non-negative");
        PathLoss { pl0_db, exponent }
    }

    /// Free-space-like 2.4 GHz reference: PL₀ ≈ 40 dB at 1 m, n = 2.
    pub fn free_space_2g4() -> Self {
        PathLoss::new(40.0, 2.0)
    }

    /// Path loss in dB at distance `d_m` metres. Distances below 0.1 m are
    /// clamped (near-field is out of scope).
    pub fn loss_db(&self, d_m: f64) -> f64 {
        let d = d_m.max(0.1);
        self.pl0_db + 10.0 * self.exponent * d.log10()
    }
}

/// A minimal floor-plan model for the NLOS deployment of Fig. 9(b): walls
/// are crossed as the receiver moves down the hallway, each adding a fixed
/// penetration loss at and beyond its distance threshold.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FloorPlan {
    /// `(threshold_m, loss_db)` — receivers at distance ≥ threshold incur
    /// the loss.
    walls: Vec<(f64, f64)>,
}

impl FloorPlan {
    /// An open line-of-sight deployment (no walls).
    pub fn line_of_sight() -> Self {
        FloorPlan::default()
    }

    /// The paper's NLOS deployment (Fig. 9b): the TX and tag sit in a room,
    /// so one wall (≈5 dB) is always crossed; past 22 m the signal must
    /// penetrate one more wall (≈12 dB), which is what stops backscatter
    /// reception there (§4.2.1: "the backscattered signal actually needs to
    /// pass one more wall … the packet header cannot be detected").
    pub fn paper_nlos() -> Self {
        FloorPlan {
            walls: vec![(0.0, 4.0), (22.5, 12.0)],
        }
    }

    /// Total wall loss in dB at receiver distance `d_m`.
    pub fn wall_loss_db(&self, d_m: f64) -> f64 {
        self.walls
            .iter()
            .filter(|(thresh, _)| d_m >= *thresh)
            .map(|(_, loss)| loss)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_grows_logarithmically() {
        let pl = PathLoss::new(35.0, 1.75);
        assert!((pl.loss_db(1.0) - 35.0).abs() < 1e-12);
        // Each decade adds 10·n dB.
        assert!((pl.loss_db(10.0) - 52.5).abs() < 1e-9);
        assert!((pl.loss_db(100.0) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn near_field_clamped() {
        let pl = PathLoss::free_space_2g4();
        assert_eq!(pl.loss_db(0.0), pl.loss_db(0.1));
        assert_eq!(pl.loss_db(-3.0), pl.loss_db(0.1));
    }

    #[test]
    fn free_space_sanity() {
        // 2.4 GHz free space at 10 m ≈ 60 dB.
        let pl = PathLoss::free_space_2g4();
        assert!((pl.loss_db(10.0) - 60.0).abs() < 0.5);
    }

    #[test]
    fn floor_plan_walls_accumulate() {
        let fp = FloorPlan::paper_nlos();
        assert!((fp.wall_loss_db(1.0) - 4.0).abs() < 1e-12);
        assert!((fp.wall_loss_db(22.0) - 4.0).abs() < 1e-12);
        assert!((fp.wall_loss_db(23.0) - 16.0).abs() < 1e-12);
        assert_eq!(FloorPlan::line_of_sight().wall_loss_db(40.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_exponent_panics() {
        let _ = PathLoss::new(40.0, 0.0);
    }
}
