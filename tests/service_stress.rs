//! Concurrency stress: N client threads mixing queries, incremental
//! inserts/deletes, and relation removes against ONE shared service,
//! with intra-query parallelism drawing from the service's shared
//! executor budget. Every client's observed results must be
//! byte-identical to a serial replay of its op sequence (clients touch
//! disjoint relations plus one shared read-only relation, so the serial
//! replay is well-defined regardless of interleaving), and the service
//! must come out of the storm fully functional — no poisoned lock, no
//! deadlock, warm cache intact.

use mmjoin::{
    JoinConfig, MaintenancePolicy, Relation, Request, Service, ServiceConfig, ServiceError,
};

const CLIENTS: u32 = 4;

/// Every test runs its storm twice: once maintaining the cached results an
/// update touches, and once under the default, which drops them.
fn policies() -> [MaintenancePolicy; 2] {
    [MaintenancePolicy::enabled(), MaintenancePolicy::default()]
}

fn client_relation(i: u32, salt: u32) -> Relation {
    Relation::from_edges(
        (0..240u32).map(move |j| ((j * (3 + i + salt)) % 40, (j * (7 + salt)) % 25)),
    )
}

fn shared_relation() -> Relation {
    Relation::from_edges((0..400u32).map(|j| ((j * 13) % 60, (j * 5) % 30)))
}

fn sorted(rows: &mmjoin::FlatRows) -> Vec<Vec<u32>> {
    let mut rows = rows.to_rows();
    rows.sort();
    rows
}

/// One client's full op script against `service`, returning the sorted
/// rows of every query it issued (in script order). The script mixes
/// cold and warm queries, delta maintenance, every query family, and a
/// relation removal.
fn run_client_ops(service: &Service, i: u32) -> Vec<Vec<Vec<u32>>> {
    let r = format!("r{i}");
    let s = format!("s{i}");
    service.register(&r, client_relation(i, 0));
    service.register(&s, client_relation(i, 9));
    let mut results = Vec::new();
    let mut push = |resp: mmjoin::Response| results.push(sorted(&resp.rows));

    push(service.query(Request::two_path(&r, &s)).unwrap());
    push(service.query(Request::two_path(&r, &s)).unwrap()); // warm
    service.insert(&r, [(41, 3), (42, 7)]).unwrap();
    push(service.query(Request::two_path(&r, &s)).unwrap());
    service.delete(&r, [(41, 3)]).unwrap();
    push(service.query(Request::two_path_counts(&r, &r, 2)).unwrap());
    push(service.query(Request::star([&r, &r, &r])).unwrap());
    push(service.query(Request::chain([&r, &s])).unwrap());
    push(
        service
            .query(Request::two_path("shared", "shared"))
            .unwrap(),
    );
    assert!(service.remove(&s));
    assert!(matches!(
        service.query(Request::two_path(&r, &s)),
        Err(ServiceError::UnknownRelation(_))
    ));
    results
}

#[test]
fn concurrent_clients_match_serial_replay() {
    // Expected per-client results: a serial replay on a fresh
    // single-worker, serial-engine service.
    let expected: Vec<Vec<Vec<Vec<u32>>>> = (0..CLIENTS)
        .map(|i| {
            let serial = Service::with_config(ServiceConfig {
                thread_budget: 1,
                ..ServiceConfig::default()
            });
            serial.register("shared", shared_relation());
            run_client_ops(&serial, i)
        })
        .collect();

    let storms = [1usize, 2, 8]
        .into_iter()
        .flat_map(|t| policies().map(|p| (t, p)));
    for (threads, maintenance) in storms {
        let on = maintenance.enabled;
        let service = Service::with_config(ServiceConfig {
            maintenance,
            thread_budget: 8,
            join_config: JoinConfig {
                threads,
                ..JoinConfig::default()
            },
            ..ServiceConfig::default()
        });
        service.register("shared", shared_relation());

        std::thread::scope(|scope| {
            for i in 0..CLIENTS {
                let service = &service;
                let expected = &expected;
                scope.spawn(move || {
                    let got = run_client_ops(service, i);
                    assert_eq!(
                        got, expected[i as usize],
                        "client {i} diverged from its serial replay \
                         (threads={threads}, maintenance {on})"
                    );
                });
            }
        });

        // The storm is over and the service is fully healthy: metrics
        // answer, the shared entry is warm, and new work still runs.
        let m = service.metrics();
        // The only errors are the CLIENTS deliberate unknown-relation
        // probes after each client removed its own relation.
        assert_eq!(
            m.errors, CLIENTS as u64,
            "threads={threads}, maintenance {on}"
        );
        assert!(m.queries_served >= (CLIENTS as u64) * 7);
        let warm = service
            .query(Request::two_path("shared", "shared"))
            .unwrap();
        assert!(warm.cached, "shared entry must survive the churn");
        service.register("fresh", client_relation(99, 1));
        assert!(!service
            .query(Request::two_path("fresh", "fresh"))
            .unwrap()
            .rows
            .is_empty());
    }
}

/// Clients hammering the same *shared* relation with reads while one
/// thread applies updates: reads must always reflect some consistent
/// epoch (serial replay of the update sequence), never a torn mix.
#[test]
fn readers_see_consistent_epochs_under_updates() {
    for maintenance in policies() {
        readers_see_consistent_epochs_under_updates_under(maintenance);
    }
}

fn readers_see_consistent_epochs_under_updates_under(maintenance: MaintenancePolicy) {
    let service = Service::with_config(ServiceConfig {
        maintenance,
        thread_budget: 4,
        join_config: JoinConfig {
            threads: 2,
            ..JoinConfig::default()
        },
        ..ServiceConfig::default()
    });
    service.register("g", shared_relation());

    // Serial ground truth: the result at every update epoch.
    let mut snapshots: Vec<Vec<Vec<u32>>> = Vec::new();
    {
        let serial = Service::with_config(ServiceConfig {
            thread_budget: 1,
            ..ServiceConfig::default()
        });
        serial.register("g", shared_relation());
        snapshots.push(sorted(
            &serial.query(Request::two_path("g", "g")).unwrap().rows,
        ));
        for step in 0..8u32 {
            serial.insert("g", [(61 + step, step % 30)]).unwrap();
            snapshots.push(sorted(
                &serial.query(Request::two_path("g", "g")).unwrap().rows,
            ));
        }
    }

    std::thread::scope(|scope| {
        let service = &service;
        let snapshots = &snapshots;
        // Writer: applies the same update sequence.
        scope.spawn(move || {
            for step in 0..8u32 {
                service.insert("g", [(61 + step, step % 30)]).unwrap();
            }
        });
        // Readers: every observed result must equal one of the epochs'
        // serial snapshots.
        for _ in 0..3 {
            scope.spawn(move || {
                for _ in 0..12 {
                    let rows = sorted(&service.query(Request::two_path("g", "g")).unwrap().rows);
                    assert!(
                        snapshots.contains(&rows),
                        "reader observed a state matching no update epoch"
                    );
                }
            });
        }
    });

    // After the writer finished, the service converges to the final epoch.
    let rows = sorted(&service.query(Request::two_path("g", "g")).unwrap().rows);
    assert_eq!(&rows, snapshots.last().unwrap());
    assert_eq!(service.metrics().errors, 0);
}

/// Two writers racing on one relation: each applies 200 disjoint
/// single-edge inserts, querying between them. Every apply runs outside
/// the catalog lock and installs only if the epoch it read is still
/// current, so the loser of a round re-applies on the winner's relation:
/// no insert is lost, each lands exactly once (one epoch each), and the
/// refreshed cache entry equals a recompute. A barrier starts each pair
/// of inserts together, so most rounds have a loser.
#[test]
fn racing_writers_on_one_relation_lose_no_insert() {
    for maintenance in policies() {
        racing_writers_on_one_relation_lose_no_insert_under(maintenance);
    }
}

fn racing_writers_on_one_relation_lose_no_insert_under(maintenance: MaintenancePolicy) {
    const PER_WRITER: u32 = 200;
    let service = Service::with_config(ServiceConfig {
        maintenance,
        thread_budget: 2,
        ..ServiceConfig::default()
    });
    // Wide enough that an apply outlasts the barrier's wake-up skew; each
    // `y` has one `x`, so the two-path stays ten pairs.
    let base = || Relation::from_edges((0..20_000u32).map(|j| (j % 10, j)));
    service.register("g", base());
    service.query(Request::two_path("g", "g")).unwrap();
    let start_epoch = service.relation_epoch("g").unwrap();
    let edge = |writer: u32, k: u32| (100 + writer * PER_WRITER + k, k % 30);
    let round = std::sync::Barrier::new(2);

    std::thread::scope(|scope| {
        for writer in 0..2 {
            let (service, round) = (&service, &round);
            scope.spawn(move || {
                for k in 0..PER_WRITER {
                    round.wait();
                    let report = service.insert("g", [edge(writer, k)]).unwrap();
                    assert_eq!(report.inserted, 1, "writer {writer} insert {k}");
                    service.query(Request::two_path("g", "g")).unwrap();
                }
            });
        }
    });

    let g = service.relation("g").unwrap();
    for writer in 0..2 {
        for k in 0..PER_WRITER {
            let (x, y) = edge(writer, k);
            assert!(g.contains(x, y), "writer {writer} insert {k} was lost");
        }
    }
    assert_eq!(g.len(), base().len() + 2 * PER_WRITER as usize);
    assert_eq!(
        service.relation_epoch("g").unwrap() - start_epoch,
        2 * PER_WRITER as u64,
        "every insert is one effective write"
    );

    let fresh = Service::with_default_registry();
    fresh.register("g", Relation::from_edges(g.edges().iter().copied()));
    let recomputed = sorted(&fresh.query(Request::two_path("g", "g")).unwrap().rows);
    let served = service.query(Request::two_path("g", "g")).unwrap();
    assert_eq!(sorted(&served.rows), recomputed);
    assert_eq!(service.metrics().errors, 0);
}

/// Relation isolation: a storm of updates to relation `hot` must be
/// invisible to concurrent readers of relation `cold` — `cold`'s pinned
/// epoch never moves, its cache entry keeps hitting, and its readers
/// never block behind the writer (they all complete while the writer is
/// still running).
#[test]
fn updates_to_one_relation_never_touch_another() {
    for maintenance in policies() {
        updates_to_one_relation_never_touch_another_under(maintenance);
    }
}

fn updates_to_one_relation_never_touch_another_under(maintenance: MaintenancePolicy) {
    let service = Service::with_config(ServiceConfig {
        maintenance,
        thread_budget: 4,
        ..ServiceConfig::default()
    });

    let (hot, cold) = ("hot", "cold");
    service.register(hot, shared_relation());
    service.register(cold, client_relation(3, 5));

    // Warm `cold`'s cache entry and pin its expected state.
    let baseline = sorted(&service.query(Request::two_path(cold, cold)).unwrap().rows);
    let cold_epoch = service.relation_epoch(cold).unwrap();

    let writer_running = std::sync::atomic::AtomicBool::new(true);
    std::thread::scope(|scope| {
        let service = &service;
        let baseline = &baseline;
        let writer_running = &writer_running;

        // Writer: continuous inserts to `hot` (each bumps its epoch and
        // churns the maintenance machinery) until readers are done.
        scope.spawn(move || {
            for step in 0..200u32 {
                service.insert(hot, [(100 + step, step % 30)]).unwrap();
                if !writer_running.load(std::sync::atomic::Ordering::SeqCst) && step >= 20 {
                    break;
                }
            }
        });

        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    for _ in 0..30 {
                        let resp = service.query(Request::two_path(cold, cold)).unwrap();
                        // Never invalidated by the other relation's storm…
                        assert!(
                            resp.cached,
                            "cold entry was invalidated by updates to another relation"
                        );
                        // …never a different epoch's rows…
                        assert_eq!(&sorted(&resp.rows), baseline);
                        // …and the pinned epoch never moved.
                        assert_eq!(service.relation_epoch(cold), Some(cold_epoch));
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        // Readers finished while the writer may still be running: they
        // were never serialized behind it.
        writer_running.store(false, std::sync::atomic::Ordering::SeqCst);
    });

    // The storm moved `hot`'s epoch (≥ 20 effective updates) and left
    // `cold`'s untouched.
    assert!(service.relation_epoch(hot).unwrap() >= 21);
    assert_eq!(service.relation_epoch(cold), Some(cold_epoch));
    assert_eq!(service.metrics().errors, 0);
}
