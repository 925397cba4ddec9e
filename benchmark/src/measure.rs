//! The two loops every workload shares: set-up repeated a fixed number of
//! times, and whole units of work (passes, cycles) repeated until the
//! measuring time is used up.

use std::time::Instant;

/// Set-ups per run; `setup_s` is the median of their wall times.
pub const SETUP_REPEATS: usize = 3;

/// Run `set_up` [`SETUP_REPEATS`] times, each from nothing — the previous
/// result is dropped before the next starts, so only one world is alive at
/// a time. Returns the last result and every set-up's wall seconds.
pub fn set_up_repeatedly<T>(mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut wall_s = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<T> = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(set_up());
        wall_s.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), wall_s)
}

/// Repeat `unit` — which returns its result and the measured seconds it
/// used — until `seconds` are used (at least twice), or exactly `fixed`
/// times when given. Units are never cut short, so every unit measures the
/// same work.
pub fn repeat_until<T>(
    seconds: f64,
    fixed: Option<usize>,
    mut unit: impl FnMut() -> (T, f64),
) -> Vec<T> {
    let mut out = Vec::new();
    let mut used = 0.0;
    loop {
        let done = match fixed {
            Some(n) => out.len() >= n,
            None => out.len() >= 2 && used >= seconds,
        };
        if done {
            return out;
        }
        let (result, unit_s) = unit();
        used += unit_s;
        out.push(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_whole_units_until_the_time_is_used() {
        let mut n = 0;
        let runs = repeat_until(1.0, None, || {
            n += 1;
            (n, 0.3)
        });
        assert_eq!(runs, vec![1, 2, 3, 4]);
        // At least two units even when the first already used the time.
        assert_eq!(repeat_until(1.0, None, || ((), 5.0)).len(), 2);
        // A fixed count ignores the clock.
        assert_eq!(repeat_until(0.0, Some(3), || ((), 9.0)).len(), 3);
    }

    #[test]
    fn set_up_keeps_one_result_alive_and_times_each_repeat() {
        let alive = std::rc::Rc::new(());
        let (last, wall_s) = set_up_repeatedly(|| {
            assert_eq!(std::rc::Rc::strong_count(&alive), 1, "previous set-up dropped first");
            std::rc::Rc::clone(&alive)
        });
        assert_eq!(wall_s.len(), SETUP_REPEATS);
        assert_eq!(std::rc::Rc::strong_count(&last), 2);
    }
}
