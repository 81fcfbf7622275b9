//! Tests of the DQ bus's lane state: the independent 8-lane DBI groups of
//! a channel each keep the levels they last drove, and
//! [`crate::BusSession`] carries them from burst to burst.

#[cfg(test)]
mod tests {
    use crate::BusSession;
    use dbi_core::{BusState, Scheme};

    #[test]
    #[should_panic(expected = "at least one lane group")]
    fn zero_groups_panics() {
        let _ = BusSession::with_plan_geometry(0, 8, Scheme::Dc.plan());
    }

    #[test]
    fn groups_start_idle_and_track_state_independently() {
        let mut bus = BusSession::with_geometry(4, 8, Scheme::Dc);
        assert_eq!(bus.group_count(), 4);
        for g in 0..4 {
            assert_eq!(bus.group_state(g), Some(BusState::idle()));
        }
        assert_eq!(bus.group_state(4), None);

        // Zeros on group 1, all-ones (which DBI DC sends on the idle
        // levels) on every other group.
        let mut access = [0xFF; 32];
        for beat in 0..8 {
            access[beat * 4 + 1] = 0x00;
        }
        bus.encode_stream(&access).unwrap();
        assert_eq!(
            bus.group_state(0),
            Some(BusState::idle()),
            "group 0 untouched"
        );
        assert_ne!(
            bus.group_state(1),
            Some(BusState::idle()),
            "group 1 advanced"
        );
    }

    #[test]
    fn lane_state_persists_across_bursts() {
        // Driving the same all-zero burst twice with DBI AC: the second
        // burst causes no transitions at all because the lanes already hold
        // the right levels.
        let mut bus = BusSession::with_geometry(1, 8, Scheme::Ac);
        let burst = [0x00; 8];
        let first = bus.encode_stream(&burst).unwrap().total();
        let second = bus.encode_stream(&burst).unwrap().total();
        assert!(first.transitions > 0);
        assert_eq!(second.transitions, 0);
    }

    #[test]
    fn idle_all_restores_the_boundary_condition() {
        let mut bus = BusSession::with_geometry(2, 8, Scheme::Raw);
        bus.encode_stream(&[0x12; 16]).unwrap();
        assert_ne!(bus.group_state(0), Some(BusState::idle()));
        bus.reset();
        for g in 0..2 {
            assert_eq!(bus.group_state(g), Some(BusState::idle()));
        }
        assert!(format!("{bus:?}").contains("groups"));
    }
}
