//! Quasi-lossless compression rate–distortion sweep (Sec. 4's "high
//! quality 'quasi-lossless' lossy compression … 10–20×" claim).

use compress::dwt::DwtCodec;
use compress::quality::{log_rate_distortion, rate_distortion};
use explore::ExecOptions;
use imagery::synth::{Scene, SceneKind};

use super::ExperimentResult;

/// Quantisation shifts swept on each scene.
const SHIFTS: [u8; 6] = [0, 1, 2, 3, 4, 5];

/// Sweeps the quantised DWT codec across quantisation levels on the
/// synthetic urban and rural RGB scenes and reports each
/// (ratio, PSNR, max-error) point.
pub fn lossy() -> ExperimentResult {
    lossy_on(&ExecOptions::auto())
}

/// [`lossy`] with its points measured on `opts`' threads. Each scene is
/// rendered and lifted once; its shifts are encoded, decoded and scored
/// side by side. Rows and `compress.rate_distortion` events follow in
/// (scene, shift) order, from the calling thread, once a scene's points
/// are all in.
fn lossy_on(opts: &ExecOptions) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "lossy",
        "Quasi-lossless DWT compression: rate vs distortion (Sec. 4 claim)",
        &["scene", "quant shift", "ratio", "PSNR (dB)", "max error"],
    );
    for (label, kind) in [
        ("urban", SceneKind::UrbanRgb),
        ("rural", SceneKind::RuralRgb),
    ] {
        let img = Scene::new(kind, 17).render(192, 192);
        let lifted = DwtCodec::lift(&img);
        let points = explore::map(&SHIFTS, opts, |&shift| {
            rate_distortion(&img, &lifted, shift)
        });
        for (shift, point) in SHIFTS.into_iter().zip(points) {
            match point {
                Ok(rd) => {
                    log_rate_distortion(shift, &rd);
                    r.push_row([
                        label.to_string(),
                        shift.to_string(),
                        format!("{:.2}", rd.ratio),
                        if rd.psnr_db.is_finite() {
                            format!("{:.1}", rd.psnr_db)
                        } else {
                            "lossless".to_string()
                        },
                        rd.max_error.to_string(),
                    ]);
                }
                Err(e) => r.note(format!("{label} shift {shift}: {e}")),
            }
        }
    }
    r.note("the paper: quasi-lossless buys only 10–20x — far from the 1000s the required ECRs demand (Fig. 6)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_identical_at_any_thread_count() {
        // The pretty JSON artifact is a function of the result's fields,
        // so equal results write equal JSON as well.
        let seq = lossy_on(&ExecOptions::sequential());
        let par = lossy_on(&ExecOptions::threads(4));
        assert_eq!(par.to_text_table(), seq.to_text_table());
        assert_eq!(par.to_csv(), seq.to_csv());
        assert_eq!(par, seq);
    }

    #[test]
    fn sweep_has_both_scenes_and_all_shifts() {
        let r = lossy();
        assert_eq!(r.rows.len(), 12);
        // Shift 0 rows are lossless.
        assert!(r
            .rows
            .iter()
            .filter(|row| row[1] == "0")
            .all(|row| row[3] == "lossless" && row[4] == "0"));
    }

    #[test]
    fn ratio_grows_and_quality_falls_along_each_sweep() {
        let r = lossy();
        for scene in ["urban", "rural"] {
            let ratios: Vec<f64> = r
                .rows
                .iter()
                .enumerate()
                .filter(|(_, row)| row[0] == scene)
                .map(|(i, _)| r.cell(i, 2).expect("lossy ratio column"))
                .collect();
            assert!(
                ratios.windows(2).all(|w| w[1] >= w[0] * 0.98),
                "{scene} ratios {ratios:?}"
            );
            // Even at shift 5 the ratio stays well under the 1000s the
            // required ECRs demand — the paper's point.
            assert!(ratios.last().unwrap() < &500.0);
        }
    }
}
