//! What-if interventions: the changes `adapt-cli --whatif` applies to a
//! run before re-running it.
//!
//! Every intervention is a real configuration of the simulator: the
//! collectives runner's `execute` maps it onto the world (noise model,
//! fault plan, link parameters, or a per-layer cost scale) and runs the
//! spec again. The answer to "what if?" is that re-run's makespan, and
//! [`diff_runs`](crate::diff_runs) attributes its delta against the
//! baseline across layer × rank × phase.

use crate::critical::Layer;

/// A change to apply to a run before re-running it.
#[derive(Clone, Debug, PartialEq)]
pub enum Intervention {
    /// Change nothing: the re-run must reproduce the run exactly.
    Noop,
    /// Remove every rank's OS-noise windows (`--noise 0`).
    NoiseOff,
    /// Remove one rank's OS-noise windows.
    RankNoiseOff(u32),
    /// Remove every injected stall window from the fault plan.
    StallsOff,
    /// Rescale every link whose label starts with `pattern` by a
    /// *speedup* factor: capacity × `factor`, latency ÷ `factor`.
    ScaleLink {
        /// Link-label prefix (e.g. `NicTx`, `Backbone`, `NicTx(3)`).
        pattern: String,
        /// Speedup (> 1 is faster, < 1 slower). Must be positive.
        factor: f64,
    },
    /// Coz-style layer speedup: multiply every cost the world charges
    /// to `layer` by `factor` (< 1 is faster). `Layer::Blocked` is
    /// derived waiting time and cannot be scaled; a network factor must
    /// be positive.
    ScaleLayer {
        /// The layer whose costs are scaled.
        layer: Layer,
        /// Cost multiplier (0.8 = "20% speedup").
        factor: f64,
    },
}

impl Intervention {
    /// Parse an intervention spec string:
    ///
    /// * `noop`
    /// * `noise-off`
    /// * `rank-noise-off=R`
    /// * `stalls-off`
    /// * `scale-link=PATTERN:FACTOR` (speedup: cap ×F, lat ÷F)
    /// * `scale-layer=LAYER:FACTOR` (cost multiplier)
    /// * `speedup=LAYER:PERCENT` (sugar for `scale-layer=LAYER:1-P/100`)
    ///
    /// `LAYER` is any critical-path layer but `blocked`, and a network
    /// factor must be positive (`speedup=network:100` is refused).
    pub fn parse(spec: &str) -> Result<Intervention, String> {
        let spec = spec.trim();
        let bad = |why: &str| format!("{spec:?}: {why}");
        let unknown = || format!("unknown intervention {spec:?}");
        let (key, val) = match spec {
            "noop" => return Ok(Intervention::Noop),
            "noise-off" => return Ok(Intervention::NoiseOff),
            "stalls-off" => return Ok(Intervention::StallsOff),
            _ => spec.split_once('=').ok_or_else(unknown)?,
        };
        if key == "rank-noise-off" {
            return val
                .parse()
                .map(Intervention::RankNoiseOff)
                .map_err(|_| bad("bad rank"));
        }
        if !["scale-link", "scale-layer", "speedup"].contains(&key) {
            return Err(unknown());
        }
        let (name, num) = val
            .split_once(':')
            .ok_or_else(|| bad(&format!("want {key}=NAME:NUMBER")))?;
        let num: f64 = num
            .parse()
            .ok()
            .filter(|x: &f64| x.is_finite())
            .ok_or_else(|| bad("bad number"))?;
        match key {
            "scale-link" if num > 0.0 => Ok(Intervention::ScaleLink {
                pattern: name.to_string(),
                factor: num,
            }),
            "scale-link" => Err(bad("factor must be positive")),
            "scale-layer" if num >= 0.0 => scale_layer(spec, name, num),
            "scale-layer" => Err(bad("factor must be non-negative")),
            _ if (0.0..=100.0).contains(&num) => scale_layer(spec, name, 1.0 - num / 100.0),
            _ => Err(bad("percent must be in 0..=100")),
        }
    }

    /// Human-readable description for reports.
    pub fn describe(&self) -> String {
        match self {
            Intervention::Noop => "no-op (re-run unchanged)".into(),
            Intervention::NoiseOff => "remove all OS-noise windows".into(),
            Intervention::RankNoiseOff(r) => format!("remove rank {r}'s OS-noise windows"),
            Intervention::StallsOff => "remove all injected stall windows".into(),
            Intervention::ScaleLink { pattern, factor } => {
                format!("links '{pattern}*': capacity x{factor}, latency /{factor}")
            }
            Intervention::ScaleLayer { layer, factor } => {
                format!("scale {} costs x{factor}", layer.label())
            }
        }
    }
}

/// A [`Intervention::ScaleLayer`] of the layer labelled `label`, refusing
/// the layers no cost can be charged to at `factor`.
fn scale_layer(spec: &str, label: &str, factor: f64) -> Result<Intervention, String> {
    match parse_layer(label)? {
        Layer::Blocked => Err(format!(
            "{spec:?}: blocked time is derived waiting; it cannot be scaled"
        )),
        Layer::Network if factor == 0.0 => Err(format!(
            "{spec:?}: the network cannot be made infinitely fast"
        )),
        layer => Ok(Intervention::ScaleLayer { layer, factor }),
    }
}

/// Parse a [`Layer`] from its lowercase label.
pub fn parse_layer(s: &str) -> Result<Layer, String> {
    crate::critical::LAYERS
        .iter()
        .copied()
        .find(|l| l.label() == s)
        .ok_or_else(|| format!("unknown layer {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Intervention::parse("noop").unwrap(), Intervention::Noop);
        assert_eq!(
            Intervention::parse("noise-off").unwrap(),
            Intervention::NoiseOff
        );
        assert_eq!(
            Intervention::parse("rank-noise-off=7").unwrap(),
            Intervention::RankNoiseOff(7)
        );
        assert_eq!(
            Intervention::parse("stalls-off").unwrap(),
            Intervention::StallsOff
        );
        assert_eq!(
            Intervention::parse("scale-link=NicTx:2").unwrap(),
            Intervention::ScaleLink {
                pattern: "NicTx".into(),
                factor: 2.0
            }
        );
        match Intervention::parse("speedup=network:20").unwrap() {
            Intervention::ScaleLayer { layer, factor } => {
                assert_eq!(layer, Layer::Network);
                assert!((factor - 0.8).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Intervention::parse("bogus").is_err());
        assert!(Intervention::parse("scale-link=NicTx:-1").is_err());
        assert!(Intervention::parse("speedup=blocked:200").is_err());
    }

    #[test]
    fn blocked_layer_and_an_infinitely_fast_network_are_refused() {
        for spec in ["scale-layer=blocked:0.5", "speedup=blocked:10"] {
            let err = Intervention::parse(spec).unwrap_err();
            assert!(err.contains("cannot be scaled"), "{spec}: {err}");
        }
        for spec in ["speedup=network:100", "scale-layer=network:0"] {
            let err = Intervention::parse(spec).unwrap_err();
            assert!(err.contains("infinitely fast"), "{spec}: {err}");
        }
        // Every other layer may be made free.
        assert_eq!(
            Intervention::parse("speedup=callback:100").unwrap(),
            Intervention::ScaleLayer {
                layer: Layer::Callback,
                factor: 0.0
            }
        );
    }
}
