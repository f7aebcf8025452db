//! Checkpoint/restart for the eigenvalue loop.
//!
//! A checkpoint captures everything the power iteration needs to resume
//! mid-solve: the iteration counter, `k_eff`, the scalar flux, the
//! previous fission-source density (for the RMS residual), and the full
//! boundary-flux banks. State is serialized through the telemetry JSON
//! layer; Rust's shortest-roundtrip float formatting makes the text
//! round trip bit-exact for every `f64` and `f32`, so a restart replays
//! the remaining iterations with identical arithmetic.

use std::collections::BTreeMap;

use antmoc_telemetry::{json, Json};
use parking_lot::Mutex;

use crate::sweep::FluxBanks;

/// Raw f32 contents of the three boundary-flux banks, in the orientation
/// they had when captured (after the iteration's bank swap).
#[derive(Debug, Clone, PartialEq)]
pub struct BankSnapshot {
    pub incoming: Vec<f32>,
    pub outgoing: Vec<f32>,
    pub boundary: Vec<f32>,
}

/// Complete solver state at the end of one eigenvalue iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverCheckpoint {
    /// Iteration this state was captured after; the resumed loop starts
    /// at `iteration + 1`.
    pub iteration: usize,
    /// Eigenvalue estimate.
    pub keff: f64,
    /// Scalar flux per `(fsr, group)`, fission production normalised.
    pub phi: Vec<f64>,
    /// Previous fission-source density (residual reference).
    pub fission_source: Vec<f64>,
    /// Boundary-flux banks.
    pub banks: BankSnapshot,
}

fn f64_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn f32_arr(values: &[f32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
}

fn read_f64_arr(node: &Json, key: &str) -> Result<Vec<f64>, String> {
    match node.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| format!("non-numeric entry in {key}")))
            .collect(),
        _ => Err(format!("missing array field {key}")),
    }
}

fn read_f32_arr(node: &Json, key: &str) -> Result<Vec<f32>, String> {
    Ok(read_f64_arr(node, key)?.into_iter().map(|v| v as f32).collect())
}

impl SolverCheckpoint {
    /// Captures the loop state at the end of iteration `iteration` (call
    /// after normalisation, bank swap, and boundary exchange).
    pub fn capture(
        iteration: usize,
        keff: f64,
        phi: &[f64],
        fission_source: &[f64],
        banks: &FluxBanks,
    ) -> Self {
        let (incoming, outgoing, boundary) = banks.export_state();
        Self {
            iteration,
            keff,
            phi: phi.to_vec(),
            fission_source: fission_source.to_vec(),
            banks: BankSnapshot { incoming, outgoing, boundary },
        }
    }

    /// Writes the captured bank snapshot back into `banks`.
    pub fn apply_banks(&self, banks: &FluxBanks) {
        banks.import_state(&self.banks.incoming, &self.banks.outgoing, &self.banks.boundary);
    }

    /// Serializes to a telemetry JSON node.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("iteration".into(), Json::Uint(self.iteration as u64)),
            ("keff".into(), Json::Num(self.keff)),
            ("phi".into(), f64_arr(&self.phi)),
            ("fission_source".into(), f64_arr(&self.fission_source)),
            (
                "banks".into(),
                Json::obj(vec![
                    ("incoming".into(), f32_arr(&self.banks.incoming)),
                    ("outgoing".into(), f32_arr(&self.banks.outgoing)),
                    ("boundary".into(), f32_arr(&self.banks.boundary)),
                ]),
            ),
        ])
    }

    /// Deserializes from a telemetry JSON node.
    fn from_json(node: &Json) -> Result<Self, String> {
        let iteration =
            node.get("iteration").and_then(Json::as_u64).ok_or("missing iteration")? as usize;
        let keff = node.get("keff").and_then(Json::as_f64).ok_or("missing keff")?;
        let phi = read_f64_arr(node, "phi")?;
        let fission_source = read_f64_arr(node, "fission_source")?;
        let banks = node.get("banks").ok_or("missing banks")?;
        Ok(Self {
            iteration,
            keff,
            phi,
            fission_source,
            banks: BankSnapshot {
                incoming: read_f32_arr(banks, "incoming")?,
                outgoing: read_f32_arr(banks, "outgoing")?,
                boundary: read_f32_arr(banks, "boundary")?,
            },
        })
    }

    /// Serializes to JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses JSON text produced by [`SolverCheckpoint::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let node = json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&node)
    }
}

/// A shared checkpoint store keyed by subdomain, holding the latest
/// serialized checkpoint per key. The store keeps text, not structs, so
/// every restart exercises the full serialize → parse round trip.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    slots: Mutex<BTreeMap<usize, (usize, String)>>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Saves `ck` as the latest checkpoint for `key`.
    pub fn save(&self, key: usize, ck: &SolverCheckpoint) {
        self.slots.lock().insert(key, (ck.iteration, ck.to_json_string()));
    }

    /// Loads and parses the latest checkpoint for `key`.
    pub fn load(&self, key: usize) -> Option<SolverCheckpoint> {
        let slots = self.slots.lock();
        let (_, text) = slots.get(&key)?;
        Some(SolverCheckpoint::from_json_str(text).expect("stored checkpoint must parse"))
    }

    /// The newest iteration for which *every* stored key has a
    /// checkpoint — the safe global restart point. `None` when empty.
    pub fn common_iteration(&self) -> Option<usize> {
        let slots = self.slots.lock();
        slots.values().map(|(it, _)| *it).min().filter(|_| !slots.is_empty())
    }

    /// Drops all checkpoints (a restart from scratch).
    pub fn clear(&self) {
        self.slots.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolverCheckpoint {
        let banks = FluxBanks::new(3, 2);
        banks.set_incoming(1, 0, &[0.125, 3.0e-7]);
        banks.store_boundary(2, 1, &[1.0 / 3.0, 9.99]);
        SolverCheckpoint::capture(
            17,
            1.187_654_321_012_345,
            &[1.0, 0.1 + 0.2, f64::MIN_POSITIVE, 4.5e17],
            &[0.25, 1.0 / 7.0],
            &banks,
        )
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let ck = sample();
        let restored = SolverCheckpoint::from_json_str(&ck.to_json_string()).unwrap();
        assert_eq!(ck, restored);
    }

    #[test]
    fn apply_banks_restores_slots() {
        let ck = sample();
        let banks = FluxBanks::new(3, 2);
        ck.apply_banks(&banks);
        let mut got = [0.0f32; 2];
        banks.get_boundary(2, 1, &mut got);
        assert_eq!(got, [1.0f32 / 3.0, 9.99f32]);
    }

    #[test]
    fn store_tracks_common_iteration() {
        let store = CheckpointStore::new();
        assert_eq!(store.common_iteration(), None);
        let mut ck = sample();
        store.save(0, &ck);
        ck.iteration = 20;
        store.save(1, &ck);
        // Key 0 is still at iteration 17, so that is the common point.
        assert_eq!(store.common_iteration(), Some(17));
        assert_eq!(store.load(0).unwrap().iteration, 17);
        assert_eq!(store.load(1).unwrap().iteration, 20);
        store.clear();
        assert_eq!(store.load(0), None);
        assert_eq!(store.common_iteration(), None);
    }
}
