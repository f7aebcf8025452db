//! Offline stand-in for the `crossbeam` API subset this workspace uses:
//! `crossbeam::channel::{unbounded, Sender, Receiver}` backed by
//! `std::sync::mpsc` (same unbounded MPSC semantics and non-overtaking
//! per-sender ordering the cluster harness relies on).

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    /// The sending half; cloneable, like crossbeam's.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Self(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// The receiving half.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_preserves_order() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            for i in 0..10 {
                assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), i);
            }
        }

        #[test]
        fn timeout_fires_on_empty_channel() {
            let (_tx, rx) = unbounded::<u32>();
            let r = rx.recv_timeout(Duration::from_millis(10));
            assert_eq!(r, Err(RecvTimeoutError::Timeout));
        }
    }
}
