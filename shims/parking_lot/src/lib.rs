//! Offline stand-in for the `parking_lot` API subset this workspace uses.
//!
//! Wraps `std::sync` primitives behind parking_lot's panic-free locking
//! signatures (`lock()` returns the guard directly). Poisoning is
//! deliberately ignored — parking_lot has no poisoning, and the callers
//! rely on that.

/// A mutex whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type re-exported for signature parity.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// A reader-writer lock whose accessors never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Guard types re-exported for signature parity.
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trips() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_round_trips() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
