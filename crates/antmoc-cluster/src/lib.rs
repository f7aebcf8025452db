//! A simulated MPI cluster: ranks as threads, typed message passing,
//! collectives, and per-rank traffic accounting.
//!
//! ANT-MOC's spatial decomposition needs exactly the communication pattern
//! this crate provides (§2.1, §3.1 of the paper): near-neighbour exchange
//! of boundary angular fluxes after each transport sweep (a Point-Jacobi
//! style update), plus reductions for `k_eff` and residuals. Running ranks
//! as OS threads with channel-backed point-to-point messaging preserves
//! those semantics one-to-one, and the byte counters validate the paper's
//! communication model (Eq. 7).
//!
//! ```
//! use antmoc_cluster::Cluster;
//!
//! let outcome = Cluster::run(4, |mut comm| {
//!     // Ring shift: send my rank to the right, receive from the left.
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send_val(right, 7, comm.rank() as u64);
//!     let got: u64 = comm.recv_val(left, 7);
//!     got
//! });
//! assert_eq!(outcome.results, vec![3, 0, 1, 2]);
//! ```

pub mod comm;
pub mod traffic;

pub use comm::{Cluster, ClusterOutcome, Comm, LinkModel};
pub use traffic::Traffic;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_ring_example() {
        let outcome = Cluster::run(4, |mut comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_val(right, 7, comm.rank() as u64);
            let got: u64 = comm.recv_val(left, 7);
            got
        });
        assert_eq!(outcome.results, vec![3, 0, 1, 2]);
    }
}
