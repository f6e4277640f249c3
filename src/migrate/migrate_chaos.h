/**
 * @file
 * Migration chaos campaign (chaos_fuzz --migrate).
 *
 * Two hosts, one migration engine per direction, and a seeded stream
 * of domain ping-pong migrations with faults armed at random sites —
 * including the migrate.* protocol sites (torn checkpoint, frame
 * drop/dup/corrupt, lost ack, destination attest failure, crash
 * during commit). Audited after every operation:
 *
 *  - aborted migrations leave the source stateDigest bit-identical
 *    to the pre-migration baseline and the domain grantable again;
 *  - committed migrations leave the domain on exactly one host, its
 *    memory pattern intact, and the retired source id a typed denial
 *    (NoSuchDomain/StaleHandle) on every monitor call;
 *  - stranded commits (COMMIT lost for good) leave the domain staged
 *    on the destination — suspended, grantable nowhere;
 *  - the cross-system oracle observed no dual-grant window at any
 *    protocol step.
 */

#ifndef HPMP_MIGRATE_MIGRATE_CHAOS_H
#define HPMP_MIGRATE_MIGRATE_CHAOS_H

#include "monitor/chaos_engine.h"

namespace hpmp
{

/**
 * Run one migration chaos campaign. Deterministic in (config.seed,
 * config.harts); requires config.layer == ChaosLayer::Migrate.
 */
ChaosStats runMigrateChaos(const ChaosConfig &config);

} // namespace hpmp

#endif // HPMP_MIGRATE_MIGRATE_CHAOS_H
