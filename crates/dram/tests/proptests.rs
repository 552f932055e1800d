//! Property-based tests for the DRAM substrate invariants.

use moat_dram::{
    AboLevel, AboProtocol, Bank, DramConfig, DramTiming, Nanos, RowId, SecurityLedger,
};
use proptest::prelude::*;

fn small_config() -> DramConfig {
    DramConfig::builder().rows_per_bank(256).build()
}

proptest! {
    /// The PRAC counter of every row always equals the exact number of
    /// activations performed on it (idealized tracking, §2.4), so with no
    /// reset the counters sum to the activations performed.
    #[test]
    fn prac_counter_matches_ground_truth(rows in prop::collection::vec(0u32..256, 1..500)) {
        let cfg = small_config();
        let mut bank = Bank::new(&cfg);
        let mut truth = vec![0u32; 256];
        let mut now = Nanos::ZERO;
        for r in &rows {
            bank.activate(RowId::new(*r), now).unwrap();
            truth[*r as usize] += 1;
            now += cfg.timing.t_rc;
        }
        for r in 0..256u32 {
            prop_assert_eq!(bank.counter(RowId::new(r)).get(), truth[r as usize]);
        }
        let sum: u64 = (0..256u32).map(|r| u64::from(bank.counter(RowId::new(r)).get())).sum();
        prop_assert_eq!(sum, rows.len() as u64);
    }

    /// Two activations can never be closer than tRC.
    #[test]
    fn trc_never_violated(gaps in prop::collection::vec(0u64..120, 1..200)) {
        let cfg = small_config();
        let mut bank = Bank::new(&cfg);
        let mut now = Nanos::ZERO;
        let mut last_accepted: Option<Nanos> = None;
        for gap in gaps {
            now += Nanos::new(gap);
            if bank.activate(RowId::new(0), now).is_ok() {
                if let Some(prev) = last_accepted {
                    prop_assert!(now.as_u64() - prev.as_u64() >= cfg.timing.t_rc.as_u64());
                }
                last_accepted = Some(now);
            }
        }
    }

    /// Ledger pressure on a victim is exactly the number of activations of
    /// rows within the blast radius since the victim's last refresh.
    #[test]
    fn ledger_pressure_matches_naive_model(
        ops in prop::collection::vec((0u32..256, prop::bool::ANY), 1..400)
    ) {
        let cfg = small_config();
        let mut ledger = SecurityLedger::new(&cfg);
        let mut naive = vec![0u32; 256];
        for (row, is_refresh) in ops {
            if is_refresh {
                ledger.on_refresh_single(RowId::new(row));
                naive[row as usize] = 0;
            } else {
                ledger.on_activate(RowId::new(row));
                let lo = row.saturating_sub(cfg.blast_radius);
                let hi = (row + cfg.blast_radius).min(255);
                for v in lo..=hi {
                    if v != row {
                        naive[v as usize] += 1;
                    }
                }
            }
        }
        for r in 0..256u32 {
            prop_assert_eq!(ledger.pressure(RowId::new(r)), naive[r as usize]);
        }
        prop_assert_eq!(
            ledger.current_max_pressure(),
            naive.iter().copied().max().unwrap()
        );
    }

    /// The REF-time resets match a naive model, mixed with activations:
    /// `on_refresh_rows(group)` zeroes the group's pressure and the epoch
    /// of every row whose upper victims the group covers (`row +
    /// blast_radius` refreshed); `on_victim_refresh(row)` zeroes the
    /// row's victims' pressure and its own epoch. The row of record for
    /// the all-time peak is the first victim, in ascending order, to
    /// exceed the running maximum. The 256 rows reach both bank edges.
    #[test]
    fn ledger_refresh_resets_match_naive_model(
        ops in prop::collection::vec((0u8..4, 0u32..256), 1..400)
    ) {
        let cfg = small_config();
        let (per, radius) = (cfg.rows_per_refresh_group, cfg.blast_radius);
        let mut ledger = SecurityLedger::new(&cfg);
        let mut pressure = vec![0u32; 256];
        let mut epoch = vec![0u32; 256];
        let (mut max_pressure, mut max_row, mut max_epoch) = (0u32, 0u32, 0u32);
        let victims = |row: u32| {
            (row.saturating_sub(radius)..=(row + radius).min(255)).filter(move |&v| v != row)
        };
        for (op, row) in ops {
            match op {
                0 | 1 => {
                    ledger.on_activate(RowId::new(row));
                    for v in victims(row) {
                        pressure[v as usize] += 1;
                        if pressure[v as usize] > max_pressure {
                            max_pressure = pressure[v as usize];
                            max_row = v;
                        }
                    }
                    epoch[row as usize] += 1;
                    max_epoch = max_epoch.max(epoch[row as usize]);
                }
                2 => {
                    let group = row / per;
                    let rows = group * per..(group + 1) * per;
                    ledger.on_refresh_rows(rows.clone());
                    for r in 0..256u32 {
                        if rows.contains(&r) {
                            pressure[r as usize] = 0;
                        }
                        if rows.contains(&(r + radius)) {
                            epoch[r as usize] = 0;
                        }
                    }
                }
                _ => {
                    ledger.on_victim_refresh(RowId::new(row));
                    for v in victims(row) {
                        pressure[v as usize] = 0;
                    }
                    epoch[row as usize] = 0;
                }
            }
        }
        for r in 0..256u32 {
            prop_assert_eq!(ledger.pressure(RowId::new(r)), pressure[r as usize], "row {}", r);
            prop_assert_eq!(ledger.epoch(RowId::new(r)), epoch[r as usize], "row {}", r);
        }
        prop_assert_eq!(
            ledger.current_max_pressure(),
            pressure.iter().copied().max().unwrap()
        );
        prop_assert_eq!(ledger.max_pressure_ever(), max_pressure);
        prop_assert_eq!(ledger.max_pressure_row(), RowId::new(max_row));
        prop_assert_eq!(ledger.max_epoch_ever(), max_epoch);
    }

    /// `Bank::reset_counters_in` zeroes exactly the PRAC counters of its
    /// range (empty ranges and ranges ending at the last row included).
    #[test]
    fn bank_range_reset_matches_naive_model(
        ops in prop::collection::vec((prop::bool::ANY, 0u32..256, 0u32..20), 1..400)
    ) {
        let cfg = small_config();
        let mut bank = Bank::new(&cfg);
        let mut truth = vec![0u32; 256];
        let mut now = Nanos::ZERO;
        for (is_reset, row, len) in ops {
            if is_reset {
                let rows = row..(row + len).min(256);
                bank.reset_counters_in(rows.clone());
                for r in rows {
                    truth[r as usize] = 0;
                }
            } else {
                bank.activate(RowId::new(row), now).unwrap();
                truth[row as usize] += 1;
                now += cfg.timing.t_rc;
            }
        }
        for r in 0..256u32 {
            prop_assert_eq!(bank.counter(RowId::new(r)).get(), truth[r as usize], "row {}", r);
        }
    }

    /// The ABO protocol never allows two ALERT assertions separated by
    /// fewer than `min_acts_between_alerts(L)` total activations (Fig. 8:
    /// 3 in-window + L post-RFM).
    #[test]
    fn abo_spacing_invariant(
        level_idx in 0usize..3,
        acts in prop::collection::vec(0u8..4, 1..100)
    ) {
        let level = AboLevel::ALL[level_idx];
        let timing = DramTiming::ddr5_prac();
        let mut abo = AboProtocol::new(level, timing);
        let mut now = Nanos::ZERO;
        let mut acts_since_last_alert = u64::MAX; // no previous alert
        for n_acts in acts {
            // Attacker performs a few ACTs, then tries to assert.
            for _ in 0..n_acts {
                abo.on_act();
                acts_since_last_alert = acts_since_last_alert.saturating_add(1);
                now += timing.t_rc;
            }
            if abo.can_assert() {
                // In-window ACTs: the attacker can squeeze 3 more in the
                // 180 ns window; count them toward the spacing total.
                let stall = abo.assert_alert(now).unwrap();
                let in_window = (stall.as_u64() - now.as_u64()) / timing.t_rc.as_u64();
                if acts_since_last_alert != u64::MAX {
                    let total = acts_since_last_alert + in_window;
                    prop_assert!(
                        total >= timing.min_acts_between_alerts(level.as_u8()) - 1,
                        "alerts spaced by only {total} acts at level {level}"
                    );
                }
                let mut t = stall;
                for _ in 0..level.as_u8() {
                    t = abo.start_rfm(t).unwrap();
                }
                now = t;
                acts_since_last_alert = 0;
            }
        }
    }
}
